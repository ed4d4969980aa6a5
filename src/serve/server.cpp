#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "defense/victim_trainer.h"
#include "env/registry.h"
#include "scenario/spec.h"

namespace imap::serve {

namespace {

/// An /infer body, one observation per line (blank lines skipped), appended
/// to `obs` as `width`-wide rows: the row count, or 0 with `error` set. A
/// NaN or infinity has no int8 code and is an error. std::from_chars: no
/// locale machinery, correctly rounded for every token this server emits.
std::size_t parse_rows(const std::string& body, std::size_t width,
                       std::vector<double>& obs, std::string& error) {
  std::size_t rows = 0, cols = 0;
  const char* p = body.data();
  const char* const end = p + body.size();
  for (;;) {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p == end || *p == '\n') {  // end of a line
      if (cols != 0 && cols != width) {
        error = "observation width mismatch";
        return 0;
      }
      rows += cols != 0 ? 1 : 0;
      cols = 0;
      if (p == end) break;
      ++p;
      continue;
    }
    double v = 0.0;
    const auto res = std::from_chars(p, end, v);
    if (res.ec != std::errc{} || !std::isfinite(v)) {
      error = "non-numeric observation";
      return 0;
    }
    obs.push_back(v);
    ++cols;
    p = res.ptr;
  }
  if (rows == 0) error = "empty body";
  return rows;
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

  // threads pool workers + one permanently occupied by the poll loop;
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
  // In-flight pool tasks finish inside the pool teardown; they never touch
  // a socket, and what they post is dropped with the loop's state.
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

void Server::post(std::function<void()> done) {
  {
    std::lock_guard<std::mutex> lk(posted_m_);
    posted_.push_back(std::move(done));
  }
  wake_loop();
}

void Server::loop() {
  std::vector<pollfd> pfds;
  std::vector<std::function<void()>> posted;
  std::vector<char> rx(16384);  // every connection's reads land here first
  while (!stop_.load(std::memory_order_relaxed)) {
    // Idle connections are polled for requests, connections with unsent
    // bytes for room to write; one whose request is in flight is not.
    pfds.assign({pollfd{listen_fd_, POLLIN, 0}, pollfd{wake_r_, POLLIN, 0}});
    for (const auto& [fd, conn] : conns_)
      if (!conn.busy && !conn.dead)
        pfds.push_back(pollfd{
            fd, static_cast<short>(conn.out.empty() ? POLLIN : POLLOUT), 0});
    if (::poll(pfds.data(), pfds.size(), again_ ? 0 : 200) < 0) continue;
    if (stop_.load(std::memory_order_relaxed)) break;

    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      if (p.fd == listen_fd_) {
        for (int fd; (fd = accept_connection(listen_fd_)) >= 0;) {
          conns_.emplace(fd, Conn{});
          metrics_.connections_opened.inc();
        }
      } else if (p.fd == wake_r_) {
        char drain[64];
        while (::read(wake_r_, drain, 64) > 0) {
        }
      } else if (const auto it = conns_.find(p.fd); it != conns_.end()) {
        Conn& conn = it->second;
        if (!conn.out.empty())
          flush(p.fd, conn);
        else if (!recv_available(p.fd, conn.in, rx))
          conn.dead = true;
      }
    }
    {
      std::lock_guard<std::mutex> lk(posted_m_);
      posted.swap(posted_);
    }
    for (const auto& done : posted) done();  // pool answers and builds
    posted.clear();
    // Parse what idle connections hold (fresh bytes, or a pipelined request
    // behind an answered one); close the dead.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (!it->second.dead) pump_conn(it->first, it->second);
      if (!it->second.dead) {
        ++it;
        continue;
      }
      ::close(it->first);
      metrics_.connections_closed.inc();
      it = conns_.erase(it);
    }
    again_ = false;  // set again by answers to connections holding more
    run_groups();
  }
  {
    std::lock_guard<std::mutex> lk(done_m_);
    loop_exited_ = true;
  }
  done_cv_.notify_all();
}

void Server::pump_conn(int fd, Conn& conn) {
  while (!conn.busy && !conn.dead && conn.out.empty() && !conn.in.empty()) {
    HttpRequest req;
    const ParseStatus st = parse_request(conn.in, req);
    if (st == ParseStatus::Incomplete) return;
    metrics_.requests_total.inc();
    conn.busy = true;  // until deliver()
    if (st == ParseStatus::Bad) {
      deliver(fd, respond(400, "application/json",
                          json_error("malformed request")));
      conn.dead = true;
    } else if (req.path == "/infer" && req.method == "POST") {
      route_infer(fd, std::move(req));
    } else {
      answer_inline(fd, req);
    }
  }
}

void Server::answer_inline(int fd, const HttpRequest& req) {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  try {
    body = dispatch(req, status, content_type);
  } catch (const CheckError& e) {
    status = 400;
    content_type = "application/json";
    body = json_error(e.what());
  } catch (const std::exception& e) {
    status = 500;
    content_type = "application/json";
    body = json_error(e.what());
  }
  deliver(fd, respond(status, content_type, body));
}

void Server::route_infer(int fd, HttpRequest req) {
  metrics_.infer_requests.inc();
  // Wall clock feeds only the /metrics latency histogram — serving
  // telemetry, never simulation state.
  const auto t0 = Clock::now();  // imap-check: allow(nondet-source)
  // `scenario` names a full threat-model scenario string; `env` is the
  // historical spelling (and any env name IS a trivial scenario), so the two
  // share one lookup path and one residency key space.
  ModelKey key{req.param("scenario").empty() ? req.param("env")
                                             : req.param("scenario"),
               req.param("defense", "PPO")};
  if (key.first.empty()) {
    deliver(fd, respond(400, "application/json",
                        json_error("missing env parameter")));
  } else if (auto m = cache_.get(key.first, key.second, /*blocking=*/false)) {
    route_rows(fd, std::move(req.body), std::move(m), t0);
  } else {
    park(std::move(key), fd, std::move(req.body), t0);
  }
}

void Server::park(ModelKey key, int fd, std::string body,
                  Clock::time_point t0) {
  const auto [it, fresh] = parked_.try_emplace(key);
  it->second.push_back(Parked{fd, std::move(body), t0});
  if (!fresh) return;  // a build for this key is already on the pool
  metrics_.pool_tasks.inc();
  pool_->submit([this, key] {
    std::shared_ptr<const ServedModel> model;
    int status = 500;
    std::string error;
    try {
      model = cache_.get(key.first, key.second);
    } catch (const CheckError& e) {
      status = 400;
      error = e.what();
    } catch (const std::exception& e) {
      error = e.what();
    }
    // Every request parked on the key is routed in this one round.
    post([this, key, model, status, error] {
      auto parked = parked_.extract(key);
      for (Parked& p : parked.mapped()) {
        if (model != nullptr)
          route_rows(p.fd, std::move(p.body), model, p.t0);
        else
          deliver(p.fd, respond(status, "application/json", json_error(error)));
      }
    });
  });
}

std::string Server::parse_group(int fd, const std::string& body,
                                Clock::time_point t0, Group& g) {
  std::string error;
  g.rows = parse_rows(body, g.model->handle.obs_dim(), g.obs, error);
  if (g.rows == 0) return respond(400, "application/json", json_error(error));
  metrics_.infer_rows.inc(g.rows);
  g.members.push_back(Member{fd, g.rows, t0});
  return {};
}

void Server::route_rows(int fd, std::string body,
                        std::shared_ptr<const ServedModel> model,
                        Clock::time_point t0) {
  Group g;
  g.model = std::move(model);
  // A body too large to forward on the loop is parsed, forwarded and
  // formatted on the pool, as its own forward.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n')) +
      (!body.empty() && body.back() != '\n' ? 1 : 0);
  if (lines > 1 && !Coalescer::runs_inline(*g.model, lines)) {
    metrics_.pool_tasks.inc();
    pool_->submit([this, fd, body = std::move(body), g, t0]() mutable {
      std::string error = parse_group(fd, body, t0, g);
      Replies replies =
          error.empty() ? answer_group(g) : Replies{{fd, std::move(error)}};
      post([this, replies = std::move(replies)]() mutable {
        for (auto& [to, response] : replies)
          deliver(to, std::move(response), true);
      });
    });
    return;
  }
  if (std::string error = parse_group(fd, body, t0, g); !error.empty()) {
    deliver(fd, std::move(error));
  } else if (g.rows > 1) {  // a multi-row body is its own forward
    ready_.push_back(std::move(g));
  } else {  // one row: joins this round's group for the snapshot
    Group& open = round_[g.model.get()];
    if (open.rows >= coalescer_.max_batch())
      ready_.push_back(std::exchange(open, Group{}));
    if (open.model == nullptr) open.model = g.model;
    open.obs.insert(open.obs.end(), g.obs.begin(), g.obs.end());
    open.rows += 1;
    open.members.push_back(g.members.front());
  }
}

void Server::run_groups() {
  for (auto& [snapshot, g] : round_) ready_.push_back(std::move(g));
  round_.clear();
  for (Group& g : ready_) {
    if (!Coalescer::runs_inline(*g.model, g.rows)) {
      submit_group(std::move(g));
      continue;
    }
    for (auto& [to, response] : answer_group(g))
      deliver(to, std::move(response));
  }
  ready_.clear();
}

void Server::submit_group(Group group) {
  std::shared_ptr<QueuedGroup>& queued = queued_[group.model.get()];
  if (queued != nullptr) {
    std::lock_guard<std::mutex> lk(queued->m);
    Group& q = queued->group;
    if (!queued->started && q.rows + group.rows <= coalescer_.max_batch()) {
      q.obs.insert(q.obs.end(), group.obs.begin(), group.obs.end());
      q.rows += group.rows;
      q.members.insert(q.members.end(), group.members.begin(),
                       group.members.end());
      return;
    }
  }
  queued = std::make_shared<QueuedGroup>();
  queued->group = std::move(group);
  metrics_.pool_tasks.inc();
  pool_->submit([this, queued] {
    Group g;
    {
      std::lock_guard<std::mutex> lk(queued->m);
      queued->started = true;
      g = std::move(queued->group);
    }
    post([this, queued, snapshot = g.model.get(),
          replies = answer_group(g)]() mutable {
      // Forget the started group unless a newer one took its place.
      const auto it = queued_.find(snapshot);
      if (it != queued_.end() && it->second == queued) queued_.erase(it);
      for (auto& [to, response] : replies)
        deliver(to, std::move(response), true);
    });
  });
}

Server::Replies Server::answer_group(const Group& g) {
  Replies replies;
  try {
    const std::size_t act = g.model->handle.act_dim();
    const nn::Batch& y = coalescer_.forward(*g.model, g.obs.data(), g.rows);
    std::size_t row = 0;
    std::string body;
    for (const Member& m : g.members) {
      body.clear();
      for (const std::size_t end = row + m.rows; row < end; ++row)
        append_row(body, y.row(row), act);
      replies.emplace_back(m.fd, respond(200, "text/plain", body));
    }
  } catch (const std::exception& e) {
    replies.clear();
    for (const Member& m : g.members)
      replies.emplace_back(
          m.fd, respond(500, "application/json", json_error(e.what())));
  }
  const auto t1 = Clock::now();  // imap-check: allow(nondet-source)
  for (const Member& m : g.members)
    metrics_.infer_latency_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - m.t0)
            .count()));
  return replies;
}

std::string Server::respond(int status, const std::string& content_type,
                            const std::string& body) {
  if (status >= 400 && status < 500) metrics_.bad_requests.inc();
  return format_response(status, content_type, body);
}

void Server::deliver(int fd, std::string response, bool pooled) {
  if (!pooled) metrics_.inline_requests.inc();
  const auto it = conns_.find(fd);
  if (it == conns_.end() || it->second.dead) return;
  Conn& conn = it->second;
  conn.busy = false;
  conn.out = std::move(response);  // a request is parsed only once flushed
  flush(fd, conn);
  if (!conn.in.empty()) again_ = true;
}

void Server::flush(int fd, Conn& conn) {
  if (!send_some(fd, conn.out, conn.sent)) {
    metrics_.write_errors.inc();  // the client died mid-response
    conn.dead = true;
  } else if (conn.sent == conn.out.size()) {
    conn.out.clear();
    conn.sent = 0;
  }
}

std::string Server::dispatch(const HttpRequest& req, int& status,
                             std::string& content_type) {
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
  if (req.path == "/attack/train" || req.path == "/infer" ||
      req.path == "/models/invalidate") {
    if (req.method != "POST") {
      status = 405;
      return json_error("POST only");
    }
  }
  if (req.path == "/attack/train") return route_attack_train(req, status);
  if (req.path == "/attack/status") return route_attack_status(req, status);
  if (req.path == "/models") return cache_.render_json();
  if (req.path == "/models/invalidate") {
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
    // The scenario names the cell's env, as normalize_plan resolves it, so
    // the task × attack check below judges the cell that would run.
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
  if (!core::attack_supported(plan.env_name, plan.attack)) {
    status = 400;
    return json_error(attack + " does not run on " + plan.env_name);
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
