// perfbench driver: one run of one workload of the repository benchmark.
//
//   perfbench_driver --workload cold-eval|served-mix --seed N
//                    --seconds S --trace 0|1 --work DIR --out FILE
//
// Every run goes through the same phases, so every end-to-end metric is
// measured on every workload; the workload decides which phase gets the
// measured --seconds and which phases run as short fixed probes. The
// phases run in kRounds rounds, so that each metric is sampled across the
// whole run rather than in one slot of it (a shared host's speed drifts
// over seconds). One round:
//
//  setup   start example_plan_server on an empty store over loopback and
//          warm it with the served workload's popular plans; twice, the
//          second server stays.
//  cold    cold svc::PlanningService::plan requests from an empty store,
//          then shared and partitioned co-runs (core::Experiment) of
//          jpeg-canny and mpeg2 under the returned plans. On cold-eval the
//          request set includes stream-jpeg-mpeg2, and rounds continue
//          until --seconds have passed.
//  warm    one closed-loop client, plan cache off, store-hit requests drawn
//          in stratified blocks of 20 (see kWarmTypes); kWarmMinRequests
//          over the run on every workload.
//  served  two closed-loop connections to the server: mostly repeats
//          served from its plan cache, a quarter fresh grids over the same
//          captures; --seconds / kRounds per round on served-mix, a short
//          probe otherwise, in two parts: one between set-up and the cold
//          pass, one after the warm phase.
//
// Afterwards every warm and served answer is checked against a reference
// digest computed by fresh, cache-less service instances; co-runs must be
// verified and deadlock-free, and deterministic counts must repeat across
// cold passes. Failures are listed under "errors" in the output.
//
// With --trace 1 the same phases run with spans (perfbench/trace.hpp)
// around every call into a layer, and cold and warm requests are also
// decomposed outside the service into the calls the service makes.
//
// The output file holds raw samples only; perfbench/run.py derives the
// metrics from it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "opt/compositionality.hpp"
#include "opt/planner.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"
#include "opt/trace_store.hpp"
#include "perfbench/trace.hpp"
#include "svc/plan_protocol.hpp"
#include "svc/planning_service.hpp"

#ifndef PERFBENCH_PLAN_SERVER
#error "PERFBENCH_PLAN_SERVER must name the example_plan_server binary"
#endif

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace cms;

constexpr unsigned kRounds = 3;
constexpr unsigned kSetupsPerRound = 2;
// Served connections. Four closed-loop clients keep all four processors of
// the reference host busy, and then one competing process on the host
// moved served p50 by 41% (two clients: 2%); two keep requests in flight
// concurrently (queueing, coalescing) without saturating the machine.
constexpr unsigned kClients = 2;
constexpr unsigned kRefThreads = 4;
constexpr unsigned kBlock = 20;             // warm requests per block
constexpr unsigned kWarmMinRequests = 180;  // p90 keeps >= 10 samples beyond
constexpr double kServedProbeSeconds = 3.0;  // per round, when not focused
constexpr double kServedWarmupSeconds = 0.3;  // per part, untimed
// A round's served traffic runs in two parts, one before the cold pass and
// one after the warm phase, and each part's timed window is cut into equal
// slots. The served metrics are medians over all slots of the run: the
// host's speed shifts over seconds, and slots spread over the whole run
// let such a shift move a few of them, not the reported value.
constexpr unsigned kServedParts = 2;
constexpr unsigned kServedSlots = 2;  // per part
// The server's VmHWM is read once a round has answered this many requests
// (warm-up included): its plan cache has no budget and grows with every
// fresh grid, so a reading at the end would grow with throughput.
constexpr unsigned kRssAtRequests = 1000;
constexpr unsigned kFreshPerMille = 250;     // served requests with new grids
constexpr unsigned kDeadlineMs = 10000;      // served admission deadline
constexpr double kPaperBoundPct = 2.0;       // compositionality bound

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

// ---------------------------------------------------------------- inputs

/// Fisher-Yates over cms::Rng, so a seed gives the same order everywhere
/// (std::shuffle's use of the generator is implementation-defined).
template <class T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

std::uint32_t between(Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  return static_cast<std::uint32_t>(rng.range(lo, hi));
}

/// `k` distinct sizes out of the sorted `pool`, sorted. The smallest size
/// is always drawn, so every task fits and the plan stays feasible.
std::vector<std::uint32_t> draw_grid(Rng& rng, std::vector<std::uint32_t> pool,
                                     std::uint32_t k) {
  const std::uint32_t smallest = pool.front();
  pool.erase(pool.begin());
  shuffle(rng, pool);
  pool.resize(std::min<std::size_t>(k - 1, pool.size()));
  pool.push_back(smallest);
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// `k` sizes spread over [lo, hi]: one from each of k equal buckets, the
/// first bucket contributing `lo`. Every draw covers the range alike, so
/// its replay cost hardly depends on the seed.
std::vector<std::uint32_t> spread_grid(Rng& rng, std::uint32_t lo,
                                       std::uint32_t hi, std::uint32_t k) {
  std::vector<std::uint32_t> grid = {lo};
  const double width = static_cast<double>(hi - lo + 1) / k;
  for (std::uint32_t b = 1; b < k; ++b) {
    const auto first = lo + static_cast<std::uint32_t>(b * width);
    const auto last = lo + static_cast<std::uint32_t>((b + 1) * width) - 1;
    grid.push_back(between(rng, first, std::max(first, last)));
  }
  return grid;
}

std::vector<std::uint32_t> range(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

const std::vector<std::uint32_t> kDefaultGrid =
    core::ExperimentConfig().profile_grid;

struct Request {
  std::string scenario;
  std::vector<std::uint32_t> grid;  // empty = the scenario's own grid
  bool phases = false;
  int type = 0;  // warm: index into kWarmTypes; served: 1 = fresh grid

  std::string grid_csv() const {
    std::string out;
    for (std::size_t i = 0; i < grid.size(); ++i)
      out += (i ? "," : "") + std::to_string(grid[i]);
    return out;
  }
  std::string key() const {
    return scenario + "|" + grid_csv() + (phases ? "|phases" : "");
  }
  svc::PlanRequest plan_request() const {
    svc::PlanRequest r;
    r.scenario = scenario;
    r.grid = grid;
    r.phases = phases;
    return r;
  }
  std::string line() const {
    std::string l = "plan " + scenario;
    if (!grid.empty()) l += " grid=" + grid_csv();
    if (phases) l += " phases=all";
    return l + " deadline_ms=" + std::to_string(kDeadlineMs);
  }
};

/// Warm request types, one latency band each, with their share of every
/// block of 20. Sorted by latency the bands stack dense < mpeg2 ~ jpeg <
/// fine: p50 (rank 50 of 100) sits inside the jpeg-canny band, where app
/// construction dominates, and p90 (rank 90) inside the fine-grid band,
/// where replay dominates.
struct WarmType {
  const char* name;
  unsigned per_block;
};
const WarmType kWarmTypes[] = {
    {"dense", 4}, {"mpeg2", 3}, {"jpeg", 9}, {"fine", 4}};

/// Seeded catalogue of (scenario, grid) pairs per warm type. Grids vary the
/// sweep over the same captures, so every request is a store hit.
std::vector<std::vector<Request>> warm_catalogue(std::uint64_t seed) {
  // Point counts are fixed per type so that a type's latency does not
  // depend on the seed; the seed picks which sizes.
  Rng rng(seed ^ 0x5741524Dull);
  std::vector<std::vector<Request>> cat(std::size(kWarmTypes));
  for (int i = 0; i < 4; ++i)
    cat[0].push_back(
        {"jpeg-canny-dense", draw_grid(rng, range(1, 64), 48), false, 0});
  for (int i = 0; i < 4; ++i)
    cat[1].push_back({"mpeg2", draw_grid(rng, kDefaultGrid, 7), false, 1});
  for (int i = 0; i < 6; ++i)
    cat[2].push_back({"jpeg-canny", draw_grid(rng, kDefaultGrid, 7), false, 2});
  for (int i = 0; i < 4; ++i)
    cat[3].push_back(
        {"jpeg-canny", spread_grid(rng, 1, 256, 28), false, 3});
  return cat;
}

/// One block: the per-type counts of kWarmTypes in seeded order.
std::vector<Request> warm_block(Rng& rng,
                                const std::vector<std::vector<Request>>& cat) {
  std::vector<Request> block;
  for (std::size_t t = 0; t < cat.size(); ++t)
    for (unsigned i = 0; i < kWarmTypes[t].per_block; ++i)
      block.push_back(cat[t][rng.below(cat[t].size())]);
  shuffle(rng, block);
  return block;
}

/// Served workload inputs: a popular pool the server computes during
/// set-up (repeats are plan-cache hits) and a deterministic stream of
/// grids no request has used before (plan-cache misses that write new
/// entries and may merge into union sweeps).
class ServedInputs {
 public:
  explicit ServedInputs(std::uint64_t seed) : fresh_rng_(seed ^ 0x46524553ull) {
    Rng rng(seed ^ 0x504F5055ull);
    for (const char* s : {"jpeg-canny-tiny", "mpeg2-tiny"}) {
      popular_.push_back({s, {}, false, 0});
      for (int i = 0; i < 2; ++i)
        popular_.push_back(
            {s, draw_grid(rng, range(1, 16), between(rng, 3, 6)), false, 0});
    }
    popular_.push_back({"jpeg-canny-dense", {}, false, 0});
    popular_.push_back({"jpeg-canny-dense",
                        draw_grid(rng, range(1, 64), between(rng, 16, 32)),
                        false, 0});
    popular_.push_back({"stream-tiny", {}, true, 0});
    for (const Request& r : popular_) seen_.insert(r.key());
  }

  const std::vector<Request>& popular() const { return popular_; }

  Request fresh() {
    std::lock_guard<std::mutex> lk(mu_);
    for (;;) {
      Request r;
      r.type = 1;
      Rng& g = fresh_rng_;
      switch (g.below(3)) {
        case 0:
          r.scenario = "jpeg-canny-tiny";
          r.grid = draw_grid(g, range(1, 32), between(g, 4, 8));
          break;
        case 1:
          r.scenario = "mpeg2-tiny";
          r.grid = draw_grid(g, range(1, 32), between(g, 4, 8));
          break;
        default:
          r.scenario = "jpeg-canny-dense";
          r.grid = draw_grid(g, range(1, 64), between(g, 8, 16));
      }
      if (seen_.insert(r.key()).second) {
        issued_.push_back(r);
        return r;
      }
    }
  }

  /// Every fresh request handed out so far.
  std::vector<Request> issued() const {
    std::lock_guard<std::mutex> lk(mu_);
    return issued_;
  }

 private:
  std::vector<Request> popular_;
  mutable std::mutex mu_;  // guards fresh_rng_, seen_ and issued_
  Rng fresh_rng_;
  std::set<std::string> seen_;
  std::vector<Request> issued_;
};

// ------------------------------------------------------------ processes

/// example_plan_server on loopback over its own store directory. The
/// destructor stops it (SIGTERM, graceful drain) and waits for it.
class ServerProcess {
 public:
  explicit ServerProcess(const std::string& dir) : dir_(dir) {
    fs::create_directories(dir);
    const std::string port_file = dir + "/port";
    const std::string log = dir + "/server.log";
    std::vector<std::string> args = {
        PERFBENCH_PLAN_SERVER, "--trace-dir", dir + "/store",
        "--plan-cache",        "disk",        "--port",
        "0",                   "--port-file", port_file,
        "--net-workers",       "4",           "--max-pending",
        "64",                  "--jobs",      "1"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc =
        posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
      throw std::runtime_error(std::string("cannot start plan server: ") +
                               std::strerror(rc));
    const auto t0 = Clock::now();
    while (port_ == 0) {
      // The server writes "<port>\n"; without the newline the file may
      // still be half written.
      std::ifstream pf(port_file);
      const std::string text((std::istreambuf_iterator<char>(pf)),
                             std::istreambuf_iterator<char>());
      if (!text.empty() && text.back() == '\n')
        port_ = static_cast<std::uint16_t>(std::stoul(text));
      if (port_ != 0) break;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("plan server exited during start-up");
      }
      if (seconds_since(t0) > 60) {
        stop();
        throw std::runtime_error("plan server did not publish its port");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  const std::string& dir() const { return dir_; }

  /// Peak resident set (VmHWM) of the live server, in MB.
  double peak_rss_mb() const {
    std::ifstream st("/proc/" + std::to_string(pid_) + "/status");
    std::string tok;
    while (st >> tok)
      if (tok == "VmHWM:") {
        double kb = 0;
        st >> kb;
        return kb / 1024.0;
      }
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_since(t0) > 20) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Blocking newline-protocol client over one loopback connection.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    timeval tv{60, 0};  // a wedged server fails the run instead of hanging
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to the plan server");
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Send one request line and return its response line (no newline).
  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to the plan server failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string resp = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return resp;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("plan server closed or timed out");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Fields of a plan_server response line. The top-level digest and total
/// are the LAST occurrences (a phased response lists its phases first).
bool line_ok(const std::string& l) { return l.rfind("{\"ok\": true", 0) == 0; }
std::string last_string(const std::string& l, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const std::size_t p = l.rfind(pat);
  if (p == std::string::npos) return {};
  const std::size_t b = p + pat.size();
  return l.substr(b, l.find('"', b) - b);
}
double last_number(const std::string& l, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t p = l.rfind(pat);
  return p == std::string::npos ? -1.0
                                : std::strtod(l.c_str() + p + pat.size(),
                                              nullptr);
}

// ------------------------------------------------------------- output

class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    s_ += "\"" + k + "\": ";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char b[64];
    std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : -1.0);
    s_ += b;
    return *this;
  }
  Json& integer(std::uint64_t v) {
    sep();
    s_ += std::to_string(v);
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    s_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    s_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) s_ += c;
    }
    s_ += '"';
    return *this;
  }
  Json& raw(const std::string& v) {
    sep();
    s_ += v;
    return *this;
  }
  Json& open(char c) {
    sep();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  template <class T, class F>
  Json& array(const std::vector<T>& v, F each) {
    open('[');
    for (const T& x : v) each(*this, x);
    return close(']');
  }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_ && !s_.empty()) s_ += ", ";
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

// ------------------------------------------------------------- harness

/// Failures of the run's correctness gates (thread-safe).
class Errors {
 public:
  void add(const std::string& e) {
    std::lock_guard<std::mutex> lk(mu_);
    if (list_.size() < 50) list_.push_back(e);
    ++count_;
  }
  std::vector<std::string> list() const {
    std::lock_guard<std::mutex> lk(mu_);
    return list_;
  }
  std::uint64_t count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> list_;
  std::uint64_t count_ = 0;
};

std::shared_ptr<opt::TraceStore> open_store(const std::string& dir) {
  fs::create_directories(dir);
  return std::make_shared<opt::TraceStore>(dir, false);
}

std::unique_ptr<svc::PlanningService> make_service(
    std::shared_ptr<opt::TraceStore> store) {
  svc::PlanningServiceConfig cfg;
  cfg.store = std::move(store);
  cfg.jobs = 1;
  return std::make_unique<svc::PlanningService>(std::move(cfg));
}

/// The Experiment the service builds for a request (store-backed trace
/// replay, one campaign worker, the request's grid), over `factory`.
core::Experiment service_experiment(const Request& r,
                                    std::shared_ptr<opt::TraceStore> store,
                                    const core::AppFactory& factory) {
  const core::ScenarioSpec spec = core::scenarios().get(r.scenario);
  core::ExperimentConfig cfg = spec.experiment;
  cfg.trace_store = std::move(store);
  cfg.profiler = core::ProfilerMode::kTraceReplay;
  cfg.jobs = 1;
  if (!r.grid.empty()) cfg.profile_grid = r.grid;
  return core::Experiment(factory, std::move(cfg));
}

/// Counts and times application construction (the apps layer boundary).
struct FactoryMeter {
  std::atomic<std::uint64_t> calls{0};
};

core::AppFactory metered(core::AppFactory inner,
                         std::shared_ptr<FactoryMeter> meter, Tracer& tr) {
  return [inner = std::move(inner), meter, &tr] {
    Span s(tr, "apps.factory");
    meter->calls.fetch_add(1, std::memory_order_relaxed);
    return inner();
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;
  std::string out;
};

// ----------------------------------------------------------- the run

class Run {
 public:
  explicit Run(Options o)
      : o_(std::move(o)),
        tracer_(o_.trace),
        served_(o_.seed),
        warm_rng_(o_.seed ^ 0x424C4B53ull) {}

  int execute() {
    const auto t_run = Clock::now();
    fs::remove_all(o_.work);
    fs::create_directories(o_.work);
    for (unsigned round = 0;; ++round) {
      setup(round);
      served(0);
      cold(round);
      warm();
      served(1);
      const bool more =
          round + 1 < kRounds ||
          (focus("cold-eval") && seconds_since(t_run) < o_.seconds);
      if (!more) break;
    }
    verify();
    run_wall_s_ = seconds_since(t_run);
    write();
    fs::remove_all(o_.work);
    return 0;
  }

 private:
  bool focus(const char* w) const { return o_.workload == w; }
  std::string dir(const std::string& name) const {
    return o_.work + "/" + name;
  }

  void expect(bool cond, const std::string& what) {
    if (!cond) errors_.add(what);
  }

  // ---- setup: a warmed plan server on an empty store, twice; the
  // second one serves this round.
  void setup(unsigned round) {
    for (unsigned i = 0; i < kSetupsPerRound; ++i) {
      server_.reset();
      if (!server_dir_.empty()) fs::remove_all(server_dir_);
      server_dir_ =
          dir("server" + std::to_string(round) + "-" + std::to_string(i));
      const auto t0 = Clock::now();
      server_ = std::make_unique<ServerProcess>(server_dir_);
      LineClient c(server_->port());
      for (const Request& r : served_.popular()) {
        const std::string resp = c.call(r.line());
        expect(line_ok(resp), "setup request failed: " + r.line());
        setup_digests_[r.key()] = last_string(resp, "plan_digest");
      }
      setup_s_.push_back(seconds_since(t0));
    }
  }

  // ---- cold: empty store, cold requests, co-runs under the plans.
  struct ColdRequest {
    std::string scenario;
    double capture_ms = 0;
    std::string digest;
    bool ok = false;
  };
  struct CoRun {
    std::string scenario;
    sim::SimResults shared, partitioned;
    double prediction_error_pct = 0;
  };
  struct ColdPass {
    double cold_s = 0, corun_s = 0, capture_s = 0;
    std::uint64_t capture_instructions = 0;
    std::vector<ColdRequest> requests;
    std::vector<CoRun> coruns;
  };

  void cold(unsigned pass) {
    std::vector<std::string> set = {"jpeg-canny", "mpeg2"};
    if (focus("cold-eval")) set.push_back("stream-jpeg-mpeg2");
    Rng rng(o_.seed ^ 0x434F4C44ull ^ (pass * 0x9E37ull));
    const std::string sdir = dir("cold" + std::to_string(pass));
    warm_store_ = open_store(sdir);
    auto service = make_service(warm_store_);
    shuffle(rng, set);
    ColdPass cp;
    std::map<std::string, opt::PartitionPlan> plans;
    const auto tc = Clock::now();
    for (const std::string& name : set) {
      const Request req{name, {}, false, 0};
      ColdRequest cr;
      cr.scenario = name;
      svc::PlanResponse resp;
      {
        Span root(tracer_, "cold.request", ++request_id_);
        if (tracer_.enabled()) traced_capture(req);
        Span s(tracer_, "svc.plan");
        resp = service->plan(req.plan_request());
      }
      cr.ok = resp.ok;
      cr.capture_ms = resp.capture_ms;
      cr.digest = svc::plan_response_digest(resp);
      expect(resp.ok && resp.assignment.feasible,
             "cold request " + name + " failed or infeasible: " + resp.error);
      expect(tracer_.enabled() || resp.captured() == resp.captures.size(),
             "cold request " + name + " did not capture from empty store");
      cold_digests_[req.key()] = cr.digest;
      plans[name] = resp.assignment;
      for (const auto& prov : resp.captures) {
        const auto cap = warm_store_->load(prov.digest);
        expect(cap.has_value(), "capture missing from store: " + name);
        if (cap)
          for (const auto& t : cap->tasks)
            cp.capture_instructions += t.instructions;
      }
      cp.capture_s += cr.capture_ms / 1e3;
      cp.requests.push_back(std::move(cr));
    }
    cp.cold_s = seconds_since(tc);

    const auto tk = Clock::now();
    for (const std::string name : {"jpeg-canny", "mpeg2"}) {
      const core::Experiment exp = core::scenarios().make_experiment(
          name, 1u, core::ProfilerMode::kTraceReplay, warm_store_);
      CoRun cr;
      cr.scenario = name;
      core::RunOutput sh, pa;
      {
        Span s(tracer_, "sim.corun", ++request_id_);
        sh = exp.run_shared();
      }
      {
        Span s(tracer_, "sim.corun", ++request_id_);
        pa = exp.run_partitioned(plans[name]);
      }
      for (const core::RunOutput* r : {&sh, &pa})
        expect(r->verified && !r->results.deadlocked,
               "co-run of " + name + " unverified or deadlocked");
      cr.shared = sh.results;
      cr.partitioned = pa.results;
      cp.coruns.push_back(std::move(cr));
    }
    cp.corun_s = seconds_since(tk);

    // Compositionality (untimed): predicted vs co-run misses.
    for (CoRun& cr : cp.coruns) {
      const core::Experiment exp = core::scenarios().make_experiment(
          cr.scenario, 1u, core::ProfilerMode::kTraceReplay, warm_store_);
      const opt::CompositionalityReport rep =
          opt::compare_expected_vs_simulated(exp.profile(),
                                             plans[cr.scenario],
                                             cr.partitioned);
      cr.prediction_error_pct = 100.0 * rep.max_rel_to_total;
      expect(cr.prediction_error_pct <= kPaperBoundPct,
             "prediction error above the paper's 2% bound on " +
                 cr.scenario);
    }
    check_repeat(cp);
    passes_.push_back(std::move(cp));
    if (pass > 0) fs::remove_all(dir("cold" + std::to_string(pass - 1)));
  }

  /// Traced cold request: the capture half done outside the service, call
  /// by call, so the service's own request afterwards is a store hit.
  void traced_capture(const Request& req) {
    const core::ScenarioSpec spec = core::scenarios().get(req.scenario);
    const core::Experiment exp =
        service_experiment(req, warm_store_, spec.factory);
    const std::uint32_t runs = std::max(1u, exp.config().profile_runs);
    for (std::uint32_t r = 0; r < runs; ++r) {
      std::string digest;
      {
        Span s(tracer_, "core.digest");
        digest = exp.trace_digest(r);
      }
      bool usable = false;
      opt::CaptureRun cap;
      {
        Span s(tracer_, "sim.capture");
        cap = exp.capture_single(r, &usable);
      }
      expect(usable, "traced capture unusable: " + req.scenario);
      Span s(tracer_, "opt.store_save");
      warm_store_->save(digest, cap);
    }
  }

  /// Deterministic counts must repeat exactly from pass to pass.
  void check_repeat(const ColdPass& cp) {
    std::ostringstream sig;
    sig << cp.capture_instructions;
    for (const CoRun& c : cp.coruns)
      sig << '|' << c.scenario << ':' << c.shared.total_instructions << ','
          << c.shared.l2_accesses << ',' << c.shared.l2_misses << ','
          << c.partitioned.total_instructions << ','
          << c.partitioned.l2_accesses << ',' << c.partitioned.l2_misses
          << ',' << c.prediction_error_pct;
    std::vector<std::string> digests;
    for (const ColdRequest& r : cp.requests)
      digests.push_back(r.scenario + "=" + r.digest);
    std::sort(digests.begin(), digests.end());
    for (const auto& d : digests) sig << '|' << d;
    if (repeat_sig_.empty())
      repeat_sig_ = sig.str();
    else
      expect(sig.str() == repeat_sig_,
             "deterministic counts drifted between cold passes");
  }

  // ---- warm: one closed-loop client, store hits, plan cache off.
  struct WarmSample {
    int type = 0;
    std::uint64_t request = 0;
    std::string key;
    double latency_ms = 0;
    bool ok = false;
    std::string digest;
    double capture_ms = 0, profile_ms = 0, plan_ms = 0, total_ms = 0;
    // Traced decomposition (zero when untraced).
    std::uint64_t factory_calls = 0, store_bytes = 0, replay_points = 0;
  };

  void warm() {
    // The one capture the warm catalogue needs beyond the cold pass
    // (untimed).
    const svc::PlanResponse fill = make_service(warm_store_)->plan(
        Request{"jpeg-canny-dense", {}, false, 0}.plan_request());
    expect(fill.ok, "warm fill failed: " + fill.error);
    auto service = make_service(warm_store_);
    const auto cat = warm_catalogue(o_.seed);
    // Every workload reports plan_ms_p90, so every run sends at least
    // kWarmMinRequests warm requests, spread over the rounds.
    const unsigned blocks =
        (kWarmMinRequests + kBlock * kRounds - 1) / (kBlock * kRounds);
    const auto t0 = Clock::now();
    for (unsigned block = 0; block < blocks; ++block) {
      for (const Request& req : warm_block(warm_rng_, cat)) {
        WarmSample ws;
        ws.type = req.type;
        ws.key = req.key();
        ws.request = ++request_id_;
        Span root(tracer_, "warm.request", ws.request);
        const auto tr = Clock::now();
        svc::PlanResponse resp;
        {
          Span s(tracer_, "svc.plan");
          resp = service->plan(req.plan_request());
        }
        ws.latency_ms = ms_since(tr);
        ws.ok = resp.ok && resp.captured() == 0;
        expect(resp.ok && resp.assignment.feasible,
               "warm request " + ws.key + " failed or infeasible: " +
                   resp.error);
        expect(resp.captured() == 0, "warm request captured: " + ws.key);
        ws.digest = svc::plan_response_digest(resp);
        ws.capture_ms = resp.capture_ms;
        ws.profile_ms = resp.profile_ms;
        ws.plan_ms = resp.plan_ms;
        ws.total_ms = resp.total_ms;
        if (tracer_.enabled()) decompose(req, resp, ws);
        warm_.push_back(std::move(ws));
      }
    }
    warm_wall_s_ += seconds_since(t0);
  }

  /// The warm request again, outside the service: the calls it makes, one
  /// span each. Its plan must equal the service's bit for bit.
  void decompose(const Request& req, const svc::PlanResponse& resp,
                 WarmSample& ws) {
    const core::ScenarioSpec spec = core::scenarios().get(req.scenario);
    auto meter = std::make_shared<FactoryMeter>();
    const core::Experiment exp = service_experiment(
        req, warm_store_, metered(spec.factory, meter, tracer_));
    opt::MissProfile prof_exp;
    opt::PartitionPlan plan_exp;
    {
      Span s(tracer_, "core.profile");
      prof_exp = exp.profile();
    }
    {
      Span s(tracer_, "core.plan");
      plan_exp = exp.plan(prof_exp);
    }
    ws.factory_calls = meter->calls.load();
    if (factory_calls_ == 0) factory_calls_ = ws.factory_calls;
    expect(ws.factory_calls == factory_calls_,
           "factory calls per request drifted: " + ws.key);

    const std::uint32_t runs = std::max(1u, exp.config().profile_runs);
    std::vector<std::string> digests;
    {
      Span s(tracer_, "core.digest");
      for (std::uint32_t r = 0; r < runs; ++r)
        digests.push_back(exp.trace_digest(r));
    }
    std::vector<opt::CaptureRun> caps;
    {
      Span s(tracer_, "opt.store_load");
      for (const std::string& d : digests) {
        auto cap = warm_store_->load(d);
        if (!cap) break;
        caps.push_back(std::move(*cap));
      }
    }
    expect(caps.size() == runs, "store load missed: " + ws.key);
    if (caps.size() != runs) return;
    for (const auto& c : caps) ws.store_bytes += c.trace.encoded_bytes();

    const sim::PlatformConfig& pc = exp.config().platform;
    opt::MissProfile prof;
    {
      Span s(tracer_, "opt.replay");
      const std::vector<opt::MultiReplayJob> jobs = exp.multi_replay_jobs(caps);
      for (const auto& j : jobs) ws.replay_points += j.points.size();
      prof = opt::replay_profile_multi(
          jobs, pc.hier.l2, pc.hier.l2_seed(), opt::miss_surcharge(pc.hier),
          opt::resolve_replay_kernel(exp.config().replay_kernel));
    }
    std::vector<std::pair<TaskId, std::string>> tasks;
    std::vector<kpn::SharedBufferInfo> buffers;
    {
      Span s(tracer_, "core.inventory");
      tasks = exp.tasks();
      buffers = exp.buffers();
    }
    opt::PartitionPlan composed;
    {
      Span s(tracer_, "opt.solve");
      composed = opt::plan_partitions(prof, tasks, buffers, pc.hier.l2,
                                      exp.config().planner);
    }
    expect(prof.identical(prof_exp),
           "composed profile differs from Experiment::profile: " + ws.key);
    expect(composed.identical(plan_exp) && composed.identical(resp.assignment),
           "outside-composed plan differs from the service's: " + ws.key);
  }

  // ---- served: closed-loop connections to the plan server, one part of
  // the round's traffic; the last part also collects the server's stats
  // and stops it.
  struct ServedSample {
    int type = 0;
    std::uint64_t slot = 0;  // timed slot of the run (see kServedSlots)
    std::string key;
    double latency_ms = 0, server_ms = -1, plan_cache_ms = -1;
    bool ok = false, cache_hit = false, measured = false;
    std::string digest;
  };

  void served(unsigned part) {
    const double window =
        (focus("served-mix") ? o_.seconds / kRounds : kServedProbeSeconds) /
        kServedParts;
    const std::uint64_t run_part = served_parts_++;
    if (part == 0) answered_ = 0;
    std::vector<std::vector<ServedSample>> per_client(kClients);
    std::vector<std::thread> pool;
    const auto span_of = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    // Traffic before `from` is checked but not timed: the server's
    // threads, and the host's idle processors under them, come up to speed
    // after the single-threaded phases.
    const auto from = Clock::now() + span_of(kServedWarmupSeconds);
    const auto until = from + span_of(window);
    const double slot_s = window / kServedSlots;
    for (unsigned c = 0; c < kClients; ++c)
      pool.emplace_back([&, c] {
        try {
          LineClient client(server_->port());
          Rng rng((o_.seed * 131 + c + 1) * 7919 + run_part);
          const auto& pop = served_.popular();
          while (Clock::now() < until) {
            const Request req =
                rng.below(1000) < kFreshPerMille
                    ? served_.fresh()
                    : pop[rng.below(pop.size())];
            ServedSample s;
            s.type = req.type;
            s.key = req.key();
            const auto tr = Clock::now();
            std::string line;
            {
              Span sp(tracer_, "net.request", ++request_id_);
              line = client.call(req.line());
            }
            s.latency_ms = ms_since(tr);
            s.measured = tr >= from;
            s.slot = run_part * kServedSlots;
            if (s.measured)
              s.slot += std::min<std::uint64_t>(
                  kServedSlots - 1,
                  static_cast<std::uint64_t>(
                      std::chrono::duration<double>(tr - from).count() /
                      slot_s));
            s.ok = line_ok(line);
            if (s.ok && line.find("\"feasible\": false") != std::string::npos)
              errors_.add("served plan infeasible: " + req.line());
            if (s.ok) {
              s.digest = last_string(line, "plan_digest");
              s.server_ms = last_number(line, "total");
              if (!req.phases) {
                s.plan_cache_ms = last_number(line, "plan_cache");
                s.cache_hit = last_string(line, "plan_source") == "cache";
              }
            } else {
              errors_.add("served request failed: " + req.line() + " -> " +
                          line.substr(0, 200));
            }
            per_client[c].push_back(std::move(s));
            if (++answered_ == kRssAtRequests)
              rss_mb_ = server_->peak_rss_mb();
          }
        } catch (const std::exception& e) {
          errors_.add(std::string("served client: ") + e.what());
        }
      });
    for (auto& t : pool) t.join();
    // The last slot also holds the requests still in flight at `until`.
    for (unsigned i = 0; i + 1 < kServedSlots; ++i)
      served_slot_s_.push_back(slot_s);
    served_slot_s_.push_back(seconds_since(from) - slot_s * (kServedSlots - 1));
    for (auto& v : per_client)
      for (auto& s : v) served_samples_.push_back(std::move(s));
    if (part + 1 < kServedParts) return;
    try {
      LineClient c(server_->port());
      server_stats_.push_back(c.call("stats"));
    } catch (const std::exception& e) {
      errors_.add(std::string("stats: ") + e.what());
    }
    // A round too slow to reach kRssAtRequests reads it at its end.
    if (answered_ < kRssAtRequests) rss_mb_ = server_->peak_rss_mb();
    server_rss_mb_ = std::max(server_rss_mb_, rss_mb_);
    const std::string store_dir = server_->dir() + "/store";
    server_.reset();
    if (tracer_.enabled()) time_plan_cache(store_dir);
  }

  /// Plan-cache lookups over the stopped server's store, for the most
  /// recently issued fresh grids (written last, so still on disk):
  /// the first get of a key reads the disk tier, repeats hit memory.
  void time_plan_cache(const std::string& store_dir) {
    const auto cache = svc::open_plan_cache(
        core::PlanCacheMode::kDisk, store_dir, core::TraceMode::kReadOnly);
    std::vector<Request> recent = served_.issued();
    if (recent.size() > 16) recent.erase(recent.begin(), recent.end() - 16);
    unsigned hits = 0;
    for (const Request& r : recent) {
      const core::ScenarioSpec spec = core::scenarios().get(r.scenario);
      const core::Experiment exp = service_experiment(r, nullptr, spec.factory);
      opt::PlanKey key;
      key.runs = std::max(1u, exp.config().profile_runs);
      for (std::uint32_t run = 0; run < key.runs; ++run)
        key.capture_digests.push_back(exp.trace_digest(run));
      key.grid = exp.config().profile_grid;
      key.l2_size_bytes = exp.config().platform.hier.l2.size_bytes;
      key.planner = exp.config().planner;
      const std::string digest = key.digest();
      {
        Span s(tracer_, "opt.plan_cache_get_disk", ++request_id_);
        if (cache->get(digest) == nullptr) continue;  // evicted or unsent
      }
      ++hits;
      for (int i = 0; i < 20; ++i) {
        Span s(tracer_, "opt.plan_cache_get", ++request_id_);
        expect(cache->get(digest) != nullptr,
               "plan cache dropped an entry it just served: " + r.key());
      }
    }
    expect(hits > 0, "no recent served plan found in the plan cache");
  }

  // ---- verification: every answer against a fresh, cache-less service.
  // Warm and cold answers are recomputed over the warm store; served
  // answers over a reference store this phase captures cold.
  struct Reference {
    Request req;
    bool on_warm = false;
    std::string digest;
  };

  void verify() {
    std::vector<Reference> refs;
    std::map<std::string, std::size_t> warm_idx, served_idx;
    auto add = [&](std::map<std::string, std::size_t>& idx, const Request& r,
                   bool on_warm) {
      if (idx.emplace(r.key(), refs.size()).second)
        refs.push_back({r, on_warm, {}});
    };
    for (const auto& type : warm_catalogue(o_.seed))
      for (const Request& r : type) add(warm_idx, r, true);
    for (const auto& kv : cold_digests_)
      add(warm_idx,
          Request{kv.first.substr(0, kv.first.find('|')), {}, false, 0},
          true);
    for (const Request& r : served_.popular()) add(served_idx, r, false);
    for (const Request& r : served_.issued()) add(served_idx, r, false);

    auto ref_store = open_store(dir("reference"));
    {
      // The served scenarios' captures first, on one thread, so the
      // parallel pass below never captures one digest twice.
      auto first = make_service(ref_store);
      for (const Request& r : served_.popular())
        if (r.grid.empty())
          expect(first->plan(r.plan_request()).ok,
                 "reference capture failed: " + r.key());
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kRefThreads; ++t)
      pool.emplace_back([&] {
        auto on_warm = make_service(warm_store_);
        auto on_ref = make_service(ref_store);
        for (std::size_t i; (i = next.fetch_add(1)) < refs.size();) {
          Reference& ref = refs[i];
          const svc::PlanResponse resp =
              (ref.on_warm ? on_warm : on_ref)->plan(ref.req.plan_request());
          if (resp.ok)
            ref.digest = svc::plan_response_digest(resp);
          else
            errors_.add("reference failed: " + ref.req.key() + ": " +
                        resp.error);
        }
      });
    for (auto& t : pool) t.join();
    references_ = refs.size();

    auto check = [&](const std::map<std::string, std::size_t>& idx,
                     const std::string& key, const std::string& digest,
                     const char* what) {
      const auto it = idx.find(key);
      expect(it != idx.end() && digest == refs[it->second].digest,
             std::string(what) + " answer differs from its reference: " + key);
    };
    for (const WarmSample& w : warm_)
      if (w.ok) check(warm_idx, w.key, w.digest, "warm");
    for (const auto& kv : cold_digests_)
      check(warm_idx, kv.first, kv.second, "cold");
    for (const ServedSample& s : served_samples_)
      if (s.ok) check(served_idx, s.key, s.digest, "served");
    for (const auto& kv : setup_digests_)
      check(served_idx, kv.first, kv.second, "set-up");
  }

  // ---- output
  void write() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Json j;
    j.open('{');
    j.key("workload").str(o_.workload);
    j.key("seed").integer(o_.seed);
    j.key("trace").boolean(o_.trace);
    j.key("seconds").num(o_.seconds);
    j.key("run_wall_s").num(run_wall_s_);
    j.key("setup_s").array(setup_s_, [](Json& o, double v) { o.num(v); });

    j.key("cold_passes").array(passes_, [](Json& o, const ColdPass& p) {
      o.open('{');
      o.key("cold_s").num(p.cold_s);
      o.key("corun_s").num(p.corun_s);
      o.key("capture_s").num(p.capture_s);
      o.key("capture_instructions").integer(p.capture_instructions);
      o.key("requests").array(p.requests, [](Json& q, const ColdRequest& r) {
        q.open('{');
        q.key("scenario").str(r.scenario);
        q.key("ok").boolean(r.ok);
        q.key("capture_ms").num(r.capture_ms);
        q.close('}');
      });
      o.key("coruns").array(p.coruns, [](Json& q, const CoRun& c) {
        q.open('{');
        q.key("scenario").str(c.scenario);
        q.key("prediction_error_pct").num(c.prediction_error_pct);
        for (const auto* mode : {"shared", "partitioned"}) {
          const sim::SimResults& r =
              std::string(mode) == "shared" ? c.shared : c.partitioned;
          q.key(mode).open('{');
          q.key("instructions").integer(r.total_instructions);
          q.key("l2_accesses").integer(r.l2_accesses);
          q.key("l2_misses").integer(r.l2_misses);
          q.key("cpi").num(r.mean_cpi());
          q.close('}');
        }
        q.close('}');
      });
      o.close('}');
    });

    j.key("warm_wall_s").num(warm_wall_s_);
    j.key("warm_types").open('[');
    for (const WarmType& t : kWarmTypes) j.str(t.name);
    j.close(']');
    j.key("warm").array(warm_, [](Json& o, const WarmSample& w) {
      o.open('{');
      o.key("type").integer(static_cast<std::uint64_t>(w.type));
      o.key("request").integer(w.request);
      o.key("ok").boolean(w.ok);
      o.key("latency_ms").num(w.latency_ms);
      o.key("capture_ms").num(w.capture_ms);
      o.key("profile_ms").num(w.profile_ms);
      o.key("plan_ms").num(w.plan_ms);
      o.key("total_ms").num(w.total_ms);
      o.key("factory_calls").integer(w.factory_calls);
      o.key("store_bytes").integer(w.store_bytes);
      o.key("replay_points").integer(w.replay_points);
      o.close('}');
    });

    j.key("served_slot_s").array(served_slot_s_,
                                 [](Json& o, double v) { o.num(v); });
    j.key("served").array(served_samples_, [](Json& o, const ServedSample& s) {
      o.open('{');
      o.key("fresh").boolean(s.type == 1);
      o.key("slot").integer(s.slot);
      o.key("measured").boolean(s.measured);
      o.key("ok").boolean(s.ok);
      o.key("cache_hit").boolean(s.cache_hit);
      o.key("latency_ms").num(s.latency_ms);
      o.key("server_ms").num(s.server_ms);
      o.key("plan_cache_ms").num(s.plan_cache_ms);
      o.close('}');
    });
    j.key("server_stats").array(
        server_stats_, [](Json& o, const std::string& st) { o.raw(st); });
    j.key("driver_rss_mb").num(static_cast<double>(ru.ru_maxrss) / 1024.0);
    j.key("server_rss_mb").num(server_rss_mb_);
    j.key("references").integer(references_);
    j.key("spans").integer(tracer_.size());
    j.key("span_cost_ns").num(tracer_.enabled() ? span_cost_ns() : 0.0);
    j.key("error_count").integer(errors_.count());
    j.key("errors").array(errors_.list(),
                          [](Json& o, const std::string& e) { o.str(e); });
    j.close('}');

    if (tracer_.enabled() && !tracer_.write_jsonl(o_.out + ".spans"))
      throw std::runtime_error("cannot write spans file");
    std::ofstream out(o_.out, std::ios::trunc);
    out << j.text() << "\n";
    if (!out) throw std::runtime_error("cannot write " + o_.out);
  }

  /// Cost of recording one span, measured on a scratch tracer: the traced
  /// run's overhead is this times the spans it recorded.
  static double span_cost_ns() {
    Tracer scratch(true);
    constexpr int kN = 20000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kN; ++i) Span s(scratch, "calibrate", 1);
    return static_cast<double>(now_ns() - t0) / kN;
  }

  Options o_;
  Tracer tracer_;
  Errors errors_;
  ServedInputs served_;
  std::atomic<std::uint64_t> request_id_{0};

  std::unique_ptr<ServerProcess> server_;
  std::shared_ptr<opt::TraceStore> warm_store_;
  std::vector<double> setup_s_;
  std::map<std::string, std::string> setup_digests_, cold_digests_;
  std::vector<ColdPass> passes_;
  std::string repeat_sig_;
  std::vector<WarmSample> warm_;
  std::vector<ServedSample> served_samples_;
  std::vector<std::string> server_stats_;
  std::string server_dir_;
  Rng warm_rng_{0};
  std::uint64_t served_parts_ = 0;
  std::atomic<unsigned> answered_{0};  // this round's served requests
  double rss_mb_ = 0;  // server VmHWM after kRssAtRequests of them
  std::uint64_t factory_calls_ = 0;
  std::vector<double> served_slot_s_;  // one per timed slot
  double warm_wall_s_ = 0, run_wall_s_ = 0;
  double server_rss_mb_ = 0;
  std::size_t references_ = 0;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--work") o.work = v;
    else if (k == "--out") o.out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (o.workload != "cold-eval" && o.workload != "served-mix")
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  if (o.work.empty() || o.out.empty() || !(o.seconds > 0))
    throw std::invalid_argument("--work, --out and --seconds > 0 required");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::Run run(perfbench::parse(argc, argv));
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
