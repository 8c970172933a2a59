// serve_mixed: open-loop /diagnose traffic against an in-process
// DiagnosisServer with its perf log on.
//
// Set-up starts the server and builds its sessions (one request per app),
// then harvests the directive sets the requests carry. An untimed warm-up
// at the reference rate follows. The measured part walks a ladder of fixed
// offered rates; at each, Poisson arrivals from util::Rng are spread over
// the sender threads, and each request is timed from its scheduled send.
// It ends with a closed-loop phase, one connection per server worker
// sending a fixed number of requests back to back, whose completed
// requests per second are the server's capacity. A fixed share of requests repeats an earlier one, so
// the server's result cache hits; the rest carry a (threshold, directives)
// pair not sent before in the run, so they miss and search a warm session.
// Once a request is sent more than kAbandonLagMs behind its schedule, the
// rate is abandoned (a growing backlog).
//
// serve::run_load sends one body per rate, so the mix needs its own
// senders. Server workers plus sender threads never exceed nproc. After
// the load, every served result is checked against
// serve::diagnose_result_json of the same request run one-shot through a
// fresh DiagnosisSession.
//
// Traced runs hold the reference rate for the whole run and alternate:
// even requests over HTTP without a span, requests 1 mod 4 over HTTP in
// a serve.roundtrip span, requests 3 mod 4 through DiagnosisServer::handle
// directly in a serve.handle span.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/session.h"
#include "history/generator.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/session_pool.h"
#include "util/rng.h"

namespace histpc::perfbench {

namespace {

const char* const kApps[] = {"poisson_a", "poisson_c", "ocean"};
constexpr int kNumApps = 3;
/// Share of requests that repeat an earlier request of the run.
constexpr double kRepeatShare = 0.3;
/// Thresholds of fresh requests: kThresholdLo + k * kThresholdStep.
constexpr double kThresholdLo = 0.20;
constexpr double kThresholdStep = 0.000005;
constexpr int kThresholdSteps = 20001;
/// Directive variants a fresh request carries: none, or the prunes
/// harvested from an undirected run. Priority directives are left out:
/// their persistent probes make one search cost 15-50 ms, which alone
/// would break the latency limit; tuning_loop exercises them.
constexpr std::size_t kVariants = 2;
constexpr double kAbandonLagMs = 1000.0;
constexpr double kClientTimeoutS = 30.0;

/// Offered rates (requests per second) and the share of the run each
/// gets. The first is the reference rate the latency metrics come from:
/// 3600 requests in a 30 s run. It keeps the workers busy enough that
/// latency does not hinge on how fast an idle virtual CPU wakes up; at
/// 100/s requests took longer than at 200/s, and varied more.
constexpr double kLadder[] = {200.0, 400.0};
constexpr double kLadderShare[] = {0.6, 0.2};
/// The rest of the run is the closed-loop capacity phase: a fixed number
/// of requests (the result cache, and with it the footprint, grows with
/// every request served), about kSaturationShare of the run at
/// kSaturationPlanRps.
constexpr double kSaturationShare = 0.2;
constexpr double kSaturationPlanRps = 500.0;
/// Untimed warm-up at the reference rate after set-up.
constexpr double kWarmupSeconds = 2.0;

struct Served {
  std::size_t body = 0;     ///< index into the run's distinct bodies
  double latency_ms = -1;   ///< scheduled send -> reply; -1 = not sent
  double lateness_ms = 0;   ///< scheduled send -> actual send
  bool traced = false;
  bool direct = false;      ///< went through DiagnosisServer::handle
  int status = 0;
  std::size_t result_hash = 0;
  double server_wall_ms = 0;
  bool cache_hit = false;
  double last_true_time = 0;
  double pairs_tested = 0, pruned = 0, conclusions_true = 0;
};

struct Setup {
  std::unique_ptr<serve::DiagnosisServer> server;
  /// Directive texts per app, one per variant.
  std::vector<std::vector<std::string>> directives;
};

/// Starts the server on the empty directory `dir` and warms it.
Setup set_up(const std::string& dir, int workers) {
  Setup setup;
  serve::ServeConfig cfg;
  cfg.threads = workers;
  cfg.store_dir = dir + "/store";
  cfg.trace_cache_dir = dir + "/trace-cache";
  cfg.result_cache = true;
  cfg.perf_log = true;
  setup.server = std::make_unique<serve::DiagnosisServer>(cfg);
  setup.server->start();
  history::GeneratorOptions prunes_only;
  prunes_only.priorities = false;
  for (const char* app : kApps) {
    const std::string body = std::string("{\"app\": \"") + app + "\"}";
    auto r = serve::http_post("127.0.0.1", setup.server->port(), "/diagnose", body,
                              kClientTimeoutS);
    if (!r || r->status != 200) throw std::runtime_error(std::string("warming ") + app + " failed");
    core::DiagnosisSession session(app);
    const auto record = session.make_record(session.diagnose(), "1");
    setup.directives.push_back(
        {"", history::DirectiveGenerator(prunes_only).from_record(record).serialize()});
  }
  return setup;
}

/// Fresh request bodies in a seeded order, and repeats of earlier ones.
class RequestMix {
 public:
  RequestMix(const Setup& setup, std::uint64_t seed) : setup_(setup), rng_(seed) {
    const std::size_t n = kNumApps * kVariants * kThresholdSteps;
    for (std::size_t i = 0; i < n; ++i) order_.push_back(i);
    for (std::size_t i = n - 1; i > 0; --i) std::swap(order_[i], order_[rng_.next_below(i + 1)]);
  }

  /// Index of the next request's body in bodies().
  std::size_t next() {
    if (!bodies_.empty() && rng_.next_double() < kRepeatShare)
      return rng_.next_below(bodies_.size());
    if (next_fresh_ == order_.size()) throw std::runtime_error("request key space exhausted");
    const std::size_t key = order_[next_fresh_++];
    const std::size_t app = key % kNumApps;
    const std::size_t variant = (key / kNumApps) % kVariants;
    const std::size_t step = key / (kNumApps * kVariants);
    util::Json body = util::Json::object();
    body["app"] = kApps[app];
    body["threshold"] = kThresholdLo + kThresholdStep * static_cast<double>(step);
    const std::string& directives = setup_.directives[app][variant];
    if (!directives.empty()) body["directives"] = directives;
    bodies_.push_back(body.dump());
    return bodies_.size() - 1;
  }

  double gap_seconds(double rate) { return -std::log(1.0 - rng_.next_double()) / rate; }

  const std::vector<std::string>& bodies() const { return bodies_; }

 private:
  const Setup& setup_;
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t next_fresh_ = 0;
  std::vector<std::string> bodies_;
};

void read_reply(const std::string& body, Served& s) {
  const util::Json reply = util::Json::parse(body);
  const util::Json& result = reply.at("result");
  s.result_hash = std::hash<std::string>()(result.dump());
  s.server_wall_ms = reply.at("server").at("wall_ms").as_double();
  s.cache_hit = reply.at("server").at("result_cache_hit").as_bool();
  s.last_true_time = result.at("stats").at("last_true_time").as_double();
  s.pairs_tested = result.at("stats").at("pairs_tested").as_double();
  s.pruned = result.at("stats").at("pruned_candidates").as_double();
  s.conclusions_true = result.at("telemetry").at("conclusions_true").as_double();
}

/// Send one request: over HTTP, in a serve.roundtrip span when traced, or
/// straight to DiagnosisServer::handle in a serve.handle span.
void send(serve::DiagnosisServer& server, const std::string& body, Served& s,
          SpanRecorder& spans, std::int64_t op) {
  if (s.direct) {
    serve::HttpRequest request;
    request.method = "POST";
    request.target = "/diagnose";
    request.body = body;
    serve::HttpResponse response;
    {
      ScopedSpan span(spans, "serve.handle", -1, op);
      response = server.handle(request);
    }
    s.status = response.status;
    if (s.status == 200) read_reply(response.body, s);
  } else {
    SpanRecorder off(false);
    ScopedSpan span(s.traced ? spans : off, "serve.roundtrip", -1, op);
    auto r = serve::http_post("127.0.0.1", server.port(), "/diagnose", body, kClientTimeoutS);
    s.status = r ? r->status : -1;
    if (r && r->status == 200) read_reply(r->body, s);
  }
}

/// Drive one rate for `seconds`: Poisson arrivals over `senders` threads.
/// Returns the requests in schedule order.
std::vector<Served> drive(serve::DiagnosisServer& server, RequestMix& mix, double rate,
                          double seconds, int senders, bool traced_mode, SpanRecorder& spans,
                          std::int64_t first_op) {
  std::vector<Served> reqs;
  std::vector<double> due_s;
  for (double t = mix.gap_seconds(rate); t < seconds; t += mix.gap_seconds(rate)) {
    Served s;
    s.body = mix.next();
    const std::size_t j = reqs.size();
    s.traced = traced_mode && j % 2 == 1;
    s.direct = traced_mode && j % 4 == 3;
    reqs.push_back(s);
    due_s.push_back(t);
  }
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  std::mutex error_mu;
  std::string error;
  // Senders take requests in schedule order from one shared cursor, so a
  // request waits for a sender only while every sender is busy.
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> backlogged{false};
  for (int k = 0; k < senders; ++k) {
    threads.emplace_back([&] {
      try {
        for (std::size_t j = cursor++; j < reqs.size() && !backlogged; j = cursor++) {
          Served& s = reqs[j];
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(due_s[j]));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          s.lateness_ms = std::chrono::duration<double, std::milli>(sent - due).count();
          if (s.lateness_ms > kAbandonLagMs) {  // a growing backlog: stop this rate
            backlogged = true;
            break;
          }
          send(server, mix.bodies()[s.body], s, spans, first_op + static_cast<std::int64_t>(j));
          s.latency_ms = ms_since(due);
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        error = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error(error);
  return reqs;
}

/// Closed loop over `count` requests: `clients` threads each send the next
/// request as soon as their last one is answered. Returns the requests in
/// order and sets `*rps` to completed requests per second of the phase.
std::vector<Served> saturate(serve::DiagnosisServer& server, RequestMix& mix, std::size_t count,
                             int clients, double* rps) {
  std::vector<Served> reqs(count);
  for (Served& s : reqs) s.body = mix.next();
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::mutex error_mu;
  std::string error;
  std::vector<std::thread> threads;
  SpanRecorder off(false);
  const auto start = Clock::now();
  for (int k = 0; k < clients; ++k) {
    threads.emplace_back([&] {
      try {
        for (std::size_t j = cursor++; j < reqs.size(); j = cursor++) {
          Served& s = reqs[j];
          const auto sent = Clock::now();
          send(server, mix.bodies()[s.body], s, off, 0);
          s.latency_ms = ms_since(sent);
          if (s.status == 200) ++completed;
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        error = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  *rps = static_cast<double>(completed) / (ms_since(start) / 1e3);
  if (!error.empty()) throw std::runtime_error(error);
  return reqs;
}

/// One-shot oracle over every distinct body that was served: a fresh
/// DiagnosisSession per app and thread, configured as the server
/// configures its consultant. Returns body index -> (hash, bottlenecks).
std::map<std::size_t, std::pair<std::size_t, std::size_t>> one_shot_results(
    const std::vector<std::string>& bodies, const std::vector<std::size_t>& wanted,
    int threads) {
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> out;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  std::string error;
  for (int k = 0; k < threads; ++k) {
    pool.emplace_back([&] {
      try {
        std::map<std::string, std::unique_ptr<core::DiagnosisSession>> sessions;
        for (std::size_t i = next++; i < wanted.size(); i = next++) {
          const serve::DiagnoseRequest req =
              serve::DiagnoseRequest::from_json(util::Json::parse(bodies[wanted[i]]));
          auto& session = sessions[req.app];
          if (!session) {
            apps::AppParams params;
            params.target_duration = req.duration;
            params.node_base = req.node_base;
            session = std::make_unique<core::DiagnosisSession>(req.app, params);
          }
          session->config().threshold_override = req.threshold;
          session->config().cost_limit = req.cost_limit;
          pc::DirectiveSet directives;
          if (!req.directives_text.empty())
            directives = pc::DirectiveSet::parse(req.directives_text);
          const pc::DiagnosisResult result = session->diagnose(directives);
          const std::size_t hash =
              std::hash<std::string>()(serve::diagnose_result_json(req.app, result, "").dump());
          std::lock_guard<std::mutex> lock(mu);
          out[wanted[i]] = {hash, result.bottlenecks.size()};
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        error = e.what();
      }
    });
  }
  for (auto& t : pool) t.join();
  if (!error.empty()) throw std::runtime_error("one-shot check: " + error);
  return out;
}

}  // namespace

void run_serve_mixed(const Options& options, SpanRecorder& spans, Report& report) {
  const int workers = std::max(1, options.nproc / 2);
  const int senders = std::max(1, options.nproc - workers);
  Setup setup;
  const std::string dir = options.work_dir + "/serve";
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // stops the previous repetition's server
    fresh_dir(dir);   // untimed: removing the last repetition's files is not set-up
    const auto t0 = Clock::now();
    setup = set_up(dir, workers);
    report.setup_seconds.push_back(ms_since(t0) / 1e3);
  }
  serve::DiagnosisServer& server = *setup.server;
  RequestMix mix(setup, options.seed);
  const std::vector<Served> warm_up =
      drive(server, mix, kLadder[0], kWarmupSeconds, senders, false, spans, 0);

  std::vector<std::pair<double, std::vector<Served>>> rungs;
  std::vector<Served> saturation;
  double saturation_rps = 0;
  std::int64_t op = 0;
  if (options.trace) {
    rungs.emplace_back(kLadder[0], drive(server, mix, kLadder[0], options.seconds, senders,
                                         true, spans, op));
  } else {
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
      const double rate = kLadder[r];
      rungs.emplace_back(rate, drive(server, mix, rate, options.seconds * kLadderShare[r],
                                     senders, false, spans, op));
      op += static_cast<std::int64_t>(rungs.back().second.size());
    }
    const auto count = static_cast<std::size_t>(
        std::ceil(options.seconds * kSaturationShare * kSaturationPlanRps));
    saturation = saturate(server, mix, count, workers, &saturation_rps);
  }
  const serve::ServeStats stats = server.stats();
  server.stop();
  report.peak_rss_mb = peak_rss_mb();  // before the one-shot check below

  // Check every served result against the one-shot run of its request.
  std::vector<const std::vector<Served>*> phases{&warm_up, &saturation};
  for (const auto& [rate, reqs] : rungs) phases.push_back(&reqs);
  std::vector<std::size_t> wanted;
  for (const auto* reqs : phases)
    for (const Served& s : *reqs)
      if (s.status == 200) wanted.push_back(s.body);
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  const auto oracle = one_shot_results(mix.bodies(), wanted, options.nproc);
  // Counts and checks one request; false if it failed.
  const auto check = [&](const Served& s) {
    ++report.attempted;
    if (s.status != 200) {
      report.fail("serve_mixed: HTTP status " + std::to_string(s.status));
      return false;
    }
    const auto& [hash, bottlenecks] = oracle.at(s.body);
    report.recall_expected += bottlenecks;
    if (s.result_hash != hash) {
      report.fail("serve_mixed: served result differs from the one-shot run of " +
                  mix.bodies()[s.body].substr(0, 80));
      return false;
    }
    report.recall_found += bottlenecks;
    return true;
  };
  for (const Served& s : warm_up)
    if (s.latency_ms >= 0) check(s);
  for (const Served& s : saturation)
    if (s.latency_ms >= 0) check(s);

  util::Json ladder = util::Json::array();
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const auto& [rate, reqs] = rungs[r];
    util::Json latencies = util::Json::array(), lateness = util::Json::array();
    std::size_t sent = 0;
    for (const Served& s : reqs) {
      if (s.latency_ms < 0) continue;
      ++sent;
      if (!check(s) || s.direct) continue;
      latencies.push_back(s.latency_ms);
      lateness.push_back(s.lateness_ms);
      if (r == 0) {
        report.ops.push_back(OpSample{s.latency_ms, s.traced});
        report.find_virtual_s.push_back(s.last_true_time);
      }
    }
    util::Json point = util::Json::object();
    point["rate"] = rate;
    point["scheduled"] = reqs.size();
    point["sent"] = sent;
    point["latency_ms"] = std::move(latencies);
    point["lateness_ms"] = std::move(lateness);
    ladder.push_back(std::move(point));
  }
  report.extra["ladder"] = std::move(ladder);
  report.extra["saturation_rps"] = saturation_rps;
  report.extra["saturation_requests"] = static_cast<double>(saturation.size());
  report.extra["workers"] = workers;
  report.extra["senders"] = senders;

  if (options.trace) {
    util::Json queue = util::Json::array(), search = util::Json::array();
    double hits = 0, served = 0;
    for (const Served& s : rungs[0].second) {
      if (s.status != 200) continue;
      served += 1;
      hits += s.cache_hit ? 1 : 0;
      if (s.traced && !s.direct) queue.push_back(s.latency_ms - s.lateness_ms - s.server_wall_ms);
      if (!s.cache_hit) {
        search.push_back(s.server_wall_ms);
        report.add("pc.pairs_tested", s.pairs_tested);
        report.add("pc.pairs_pruned", s.pruned);
        report.add("pc.conclusions_true", s.conclusions_true);
        report.add("ops.searched", 1);
      }
    }
    report.extra["queue_ms"] = std::move(queue);
    report.extra["search_ms"] = std::move(search);
    report.add("serve.result_cache_hits", hits);
    report.add("serve.requests", served);
  }
  report.add("serve.shed", static_cast<double>(stats.shed));
}

}  // namespace histpc::perfbench
