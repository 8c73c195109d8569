// plan_server: the store-aware planning service behind a line-oriented
// protocol — one request per line, one JSON response per line — served
// either over stdin/stdout (the default; pipelines, debugging) or as a
// real socket server (`--port`, src/net/line_server.hpp: poll event
// loop, many concurrent connections, worker pool). The process is the
// unit of deployment: point it at a trace-store directory (shared with
// CI jobs, benches or other servers) and every scenario is captured at
// most once across all of them; repeat plans are pure store-replay and
// return in milliseconds, and CONCURRENT near-identical requests merge
// into one union-grid replay sweep (svc sweep coalescing) — which is
// exactly why the socket front end matters: concurrent connections are
// what puts concurrent requests in flight.
//
//   $ ./example_plan_server --trace-dir traces --port 0 --port-file p.txt
//   $ nc 127.0.0.1 $(cat p.txt)
//   plan mpeg2-tiny grid=1,2,4,8 runs=2 l2=32768 eps=0.01
//   {"ok": true, "scenario": "mpeg2-tiny", ... "sweep": "leader", ...}
//
// WIRE PROTOCOL (identical on stdin and socket; newline-delimited,
// UTF-8, one request line -> exactly one response line, responses always
// in request order per connection):
//
//   plan <scenario> [grid=a,b,c] [runs=N] [l2=BYTES] [eps=X]
//                   [deadline_ms=MS] [phases=all]
//       -> {"ok": true, "scenario": ..., "sweep": "leader|coalesced|
//           cache", "union_points": N, "plan_digest": "...", ...}
//       Each option may appear AT MOST ONCE (repeats are request
//       errors); eps must be finite and >= 0 (omit for auto-tune).
//       phases=all plans every phase of a streaming scenario; the
//       response then carries a "phases" array of per-phase responses
//       (each with its own plan_digest) instead of a single assignment.
//       deadline_ms is an ADMISSION deadline: if the request is still
//       queued when it expires, the server answers
//       {"ok": false, "error": "error deadline expired in queue"}
//       without planning; once started, a request always completes.
//   scenarios          list registered scenarios: name, description and
//                      phase count (0 = classic fixed-mix scenario)
//   stats              service + store + plan-cache (+ net) counters
//   gc                 enforce the store + plan-cache budgets now
//   quit | exit        stdin mode: leave (EOF works too). Socket mode:
//                      close the connection instead; quit is an error.
//
//   Error lines are {"ok": false, "error": "..."} — including the two
//   transport-level ones every client must expect under load:
//     {"ok": false, "error": "error busy (queue full, retry)"}   (shed)
//     {"ok": false, "error": "error deadline expired in queue"}
//
// Flags (--help lists them all): the store, service and net groups of
// core/cli.hpp plus --jobs, --replay-kernel and --coalesce-window-ms.
// --trace-dir defaults to plan_server.traces and --trace off is rejected.
// Giving --port at all, even --port 0, selects socket mode; without it
// the server answers on stdin/stdout. Size --net-workers at least as
// large as the bursts that should coalesce (a follower blocks its worker).
//   SIGTERM/SIGINT drain gracefully: stop accepting + reading, finish
//   every admitted request, flush every byte, then exit 0.
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/number.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "net/line_server.hpp"
#include "svc/plan_protocol.hpp"
#include "svc/planning_service.hpp"

using namespace cms;

namespace {

/// printf into a std::string (every responder below builds a line; the
/// stdin loop prints it, the socket server buffers it per connection).
std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// Minimal JSON string escaping for error messages and names.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string error_json(const std::string& message) {
  return format("{\"ok\": false, \"error\": \"%s\"}",
                json_escape(message).c_str());
}

std::string response_json(const svc::PlanResponse& resp) {
  // Per-phase entries of a phased response carry their phase name.
  const std::string phase_field =
      resp.phase.empty()
          ? std::string()
          : format(", \"phase\": \"%s\"", json_escape(resp.phase).c_str());
  if (!resp.ok && resp.phases.empty())
    return format("{\"ok\": false, \"scenario\": \"%s\"%s, \"error\": \"%s\"}",
                  json_escape(resp.scenario).c_str(), phase_field.c_str(),
                  json_escape(resp.error).c_str());
  if (!resp.phases.empty()) {
    // Phased response (phases=all): one full response object per phase;
    // the top level aggregates ok and carries the digest over ALL phases.
    std::string out = format("{\"ok\": %s, \"scenario\": \"%s\"",
                             resp.ok ? "true" : "false",
                             json_escape(resp.scenario).c_str());
    if (!resp.ok)
      out += format(", \"error\": \"%s\"", json_escape(resp.error).c_str());
    out += ", \"phases\": [";
    for (std::size_t i = 0; i < resp.phases.size(); ++i) {
      if (i) out += ", ";
      out += response_json(resp.phases[i]);
    }
    out += format("], \"plan_digest\": \"%s\", \"ms\": {\"total\": %.1f}}",
                  svc::plan_response_digest(resp).c_str(), resp.total_ms);
    return out;
  }
  std::string out = format(
      "{\"ok\": true, \"scenario\": \"%s\"%s, \"feasible\": %s, "
      "\"expected_task_misses\": %.1f, \"used_sets\": %u, "
      "\"total_sets\": %u, \"captured\": %llu, \"store_hits\": %llu",
      json_escape(resp.scenario).c_str(), phase_field.c_str(),
      resp.assignment.feasible ? "true" : "false",
      resp.assignment.expected_task_misses, resp.assignment.used_sets,
      resp.assignment.total_sets,
      static_cast<unsigned long long>(resp.captured()),
      static_cast<unsigned long long>(resp.store_hits()));
  out += ", \"tasks\": [";
  for (std::size_t i = 0; i < resp.tasks.size(); ++i) {
    const auto& t = resp.tasks[i];
    out += format("%s{\"name\": \"%s\", \"sets\": %u, \"misses\": %.1f, "
                  "\"t_i\": %.0f}",
                  i ? ", " : "", json_escape(t.name).c_str(), t.sets,
                  t.predicted_misses, t.predicted_cycles);
  }
  out += "], \"runs\": [";
  for (std::size_t i = 0; i < resp.captures.size(); ++i) {
    const auto& r = resp.captures[i];
    out += format("%s{\"jitter\": %llu, \"digest\": \"%s\", \"source\": "
                  "\"%s\"}",
                  i ? ", " : "", static_cast<unsigned long long>(r.jitter),
                  r.digest.c_str(), svc::to_string(r.source));
  }
  // plan_digest is the machine-grade identity: the rounded floats above
  // are for humans, the digest separates answers bit-for-bit
  // (bench/micro_plan_server proves coalesced == uncoalesced through it).
  out += format(
      "], \"plan_source\": \"%s\", \"sweep\": \"%s\", \"union_points\": %u, "
      "\"plan_digest\": \"%s\", \"kernel\": \"%s\", "
      "\"ms\": {\"capture\": %.1f, \"profile\": %.1f, "
      "\"plan\": %.1f, \"plan_cache\": %.2f, \"total\": %.1f}}",
      svc::to_string(resp.plan_source), svc::to_string(resp.sweep),
      resp.union_points, svc::plan_response_digest(resp).c_str(),
      resp.replay_kernel.c_str(), resp.capture_ms, resp.profile_ms,
      resp.plan_ms, resp.plan_cache_ms, resp.total_ms);
  return out;
}

std::string scenarios_json() {
  // One registry lock for the whole listing (ScenarioRegistry::list), not
  // a get() per name. phases > 0 marks a streaming scenario (plannable
  // per phase via `plan <name> phases=all`).
  const std::vector<core::ScenarioInfo> rows = core::scenarios().list();
  std::string out = "{\"ok\": true, \"scenarios\": [";
  for (std::size_t i = 0; i < rows.size(); ++i)
    out += format(
        "%s{\"name\": \"%s\", \"description\": \"%s\", \"phases\": %llu}",
        i ? ", " : "", json_escape(rows[i].name).c_str(),
        json_escape(rows[i].description).c_str(),
        static_cast<unsigned long long>(rows[i].phase_count));
  out += "]}";
  return out;
}

std::string stats_json(const svc::PlanningService& service,
                       const net::LineServer* server) {
  const svc::ServiceStats ss = service.service_stats();
  const opt::TraceStore::Stats st = service.store_stats();
  const opt::PlanCache::Stats pc = service.plan_cache_stats();
  std::string out = format(
      "{\"ok\": true, \"service\": {\"requests\": %llu, \"captured\": "
      "%llu, \"deferred\": %llu, \"store_hits\": %llu, "
      "\"coalesced\": %llu, \"plan_cache_hits\": %llu, "
      "\"sweeps_started\": %llu, \"sweeps_coalesced\": %llu, "
      "\"union_points_saved\": %llu, \"sweeps_sealed_early\": %llu}, "
      "\"store\": {\"hits\": %llu, \"misses\": %llu, \"writes\": %llu, "
      "\"evictions\": %llu, \"entries\": %llu, \"bytes\": %llu, "
      "\"pinned\": %llu%s}, "
      "\"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"inserts\": %llu, \"mem_hits\": %llu, \"disk_hits\": %llu, "
      "\"disk_writes\": %llu, \"evictions\": %llu, "
      "\"mem_evictions\": %llu, \"mem_evicted_bytes\": %llu, "
      "\"disk_evictions\": %llu, \"disk_evicted_bytes\": %llu, "
      "\"entries\": %llu, \"bytes\": %llu, \"disk_entries\": %llu, "
      "\"disk_bytes\": %llu%s}",
      static_cast<unsigned long long>(ss.requests),
      static_cast<unsigned long long>(ss.captured),
      static_cast<unsigned long long>(ss.deferred),
      static_cast<unsigned long long>(ss.store_hits),
      static_cast<unsigned long long>(ss.coalesced),
      static_cast<unsigned long long>(ss.plan_cache_hits),
      static_cast<unsigned long long>(ss.sweeps_started),
      static_cast<unsigned long long>(ss.sweeps_coalesced),
      static_cast<unsigned long long>(ss.union_points_saved),
      static_cast<unsigned long long>(ss.sweeps_sealed_early),
      static_cast<unsigned long long>(st.hits),
      static_cast<unsigned long long>(st.misses),
      static_cast<unsigned long long>(st.writes),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.entries),
      static_cast<unsigned long long>(st.bytes),
      static_cast<unsigned long long>(st.pinned),
      opt::tier_counters_json(st.tiers).c_str(),
      static_cast<unsigned long long>(pc.hits),
      static_cast<unsigned long long>(pc.misses),
      static_cast<unsigned long long>(pc.inserts),
      static_cast<unsigned long long>(pc.mem_hits),
      static_cast<unsigned long long>(pc.disk_hits),
      static_cast<unsigned long long>(pc.disk_writes),
      static_cast<unsigned long long>(pc.evictions),
      static_cast<unsigned long long>(pc.mem_evictions),
      static_cast<unsigned long long>(pc.mem_evicted_bytes),
      static_cast<unsigned long long>(pc.disk_evictions),
      static_cast<unsigned long long>(pc.disk_evicted_bytes),
      static_cast<unsigned long long>(pc.entries),
      static_cast<unsigned long long>(pc.bytes),
      static_cast<unsigned long long>(pc.disk_entries),
      static_cast<unsigned long long>(pc.disk_bytes),
      opt::tier_counters_json(pc.tiers).c_str());
  if (server != nullptr) {
    const net::LineServer::Stats ns = server->stats();
    out += format(
        ", \"net\": {\"accepted\": %llu, \"requests\": %llu, "
        "\"served\": %llu, \"shed\": %llu, \"deadline_expired\": %llu, "
        "\"closed_overlong\": %llu, \"closed_slow\": %llu}",
        static_cast<unsigned long long>(ns.accepted),
        static_cast<unsigned long long>(ns.requests),
        static_cast<unsigned long long>(ns.served),
        static_cast<unsigned long long>(ns.shed),
        static_cast<unsigned long long>(ns.deadline_expired),
        static_cast<unsigned long long>(ns.closed_overlong),
        static_cast<unsigned long long>(ns.closed_slow));
  }
  out += "}";
  return out;
}

std::string gc_json(svc::PlanningService& service) {
  const opt::GcResult gr = service.gc();
  return format("{\"ok\": true, \"evicted_entries\": %llu, "
                "\"evicted_bytes\": %llu}",
                static_cast<unsigned long long>(gr.evicted_entries),
                static_cast<unsigned long long>(gr.evicted_bytes));
}

/// One protocol request -> one response line (without newline). Shared
/// verbatim by the stdin loop and the socket worker pool ("quit" never
/// reaches here). Thread-safe: every service entry point it touches is.
std::string handle_line(svc::PlanningService& service,
                        const net::LineServer* server,
                        const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd)) return {};  // blank line (stdin loop skips these)
  if (cmd == "scenarios") return scenarios_json();
  if (cmd == "stats") return stats_json(service, server);
  if (cmd == "gc") return gc_json(service);
  if (cmd == "plan") {
    svc::PlanRequest req;
    std::string operands, err;
    std::getline(in, operands);  // everything after the command word
    if (!svc::parse_plan_request(operands, req, err)) return error_json(err);
    return response_json(service.plan(req));
  }
  if (cmd == "quit" || cmd == "exit")
    return error_json("quit is stdin-only; close the connection instead");
  return error_json("unknown command '" + cmd +
                    "' (plan|scenarios|stats|gc)");
}

/// Admission-deadline extractor for the socket server: pull
/// `deadline_ms=` out of a plan line without a full parse (malformed
/// requests still flow to the handler for a proper protocol error).
std::optional<std::uint64_t> deadline_of(const std::string& line) {
  std::istringstream in(line);
  std::string tok;
  if (!(in >> tok) || tok != "plan") return std::nullopt;
  while (in >> tok) {
    if (tok.rfind("deadline_ms=", 0) != 0) continue;
    std::uint64_t ms = 0;
    if (parse_decimal(std::string_view(tok).substr(12), ms) !=
        NumberParse::kOk)
      return std::nullopt;
    return ms;
  }
  return std::nullopt;
}

net::LineServer* g_server = nullptr;  // SIGTERM/SIGINT -> graceful drain

void on_signal(int) {
  if (g_server != nullptr) g_server->shutdown();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = core::cli;
  constexpr cli::Flag kOwn[] = {cli::kJobs, cli::kReplayKernel,
                                cli::kCoalesceWindow, {}};
  const cli::Args args = cli::parse_or_exit(
      argc, argv,
      {cli::kStoreFlags, cli::kServiceFlags, cli::kNetFlags, kOwn});
  const auto jobs = args.count<unsigned>("--jobs");
  auto [dir, mode, l2_target, l2] = cli::store_choice(args);
  if (dir.empty()) dir = "plan_server.traces";
  if (mode == core::TraceMode::kOff) {
    std::fprintf(stderr, "plan_server needs a store (--trace=off?)\n");
    return 1;
  }
  const opt::Capacity capacity{args.count("--service-budget-bytes"),
                               args.count("--service-budget-entries")};
  const opt::Capacity cache_budget{args.count("--plan-cache-budget-bytes"),
                                   args.count("--plan-cache-budget-entries")};
  const bool socket_mode = args.given("--port");

  // ONE backend (dir, or tiered dir-over-dir) shared by the trace store
  // and the plan cache's disk tier, so both kinds of blob ride the same
  // L1/L2 tiering and the same far directory.
  const std::shared_ptr<opt::StoreBackend> backend =
      core::open_store_backend(dir, mode, l2_target, l2);
  svc::PlanningServiceConfig svc_cfg;
  svc_cfg.store = svc::open_service_store(backend, mode, capacity);
  svc_cfg.jobs = jobs;
  svc_cfg.replay_kernel = args.choice<opt::ReplayKernel>("--replay-kernel");
  svc_cfg.plan_cache = svc::open_plan_cache(
      args.choice<core::PlanCacheMode>("--plan-cache"), backend, mode,
      cache_budget);
  svc_cfg.coalesce_window_ms = args.millis("--coalesce-window-ms");
  svc::PlanningService service(std::move(svc_cfg));
  std::fprintf(stderr,
               "plan_server ready: store %s (budget %llu bytes / %llu "
               "entries), plan cache %s, %u worker%s per request\n",
               backend->describe().c_str(),
               static_cast<unsigned long long>(capacity.max_bytes),
               static_cast<unsigned long long>(capacity.max_entries),
               service.plan_cache() == nullptr
                   ? "off"
                   : service.plan_cache()->disk_tier() ? "mem+disk" : "mem",
               jobs, jobs == 1 ? "" : "s");

  if (socket_mode) {
    net::LineServerConfig net_cfg;
    net_cfg.port = args.count<std::uint16_t>("--port");
    net_cfg.workers = args.count<unsigned>("--net-workers");
    net_cfg.max_pending = args.count<std::size_t>("--max-pending");
    net_cfg.busy_response = error_json("error busy (queue full, retry)");
    net_cfg.deadline_response =
        error_json("error deadline expired in queue");
    net_cfg.overlong_response = error_json("error line too long");
    net_cfg.deadline_of = deadline_of;
    // The handler wants the server back (net counters in `stats`), but
    // the server needs the handler to construct: late-bind through a
    // pointer that is set before start() spawns any worker.
    net::LineServer* server_ptr = nullptr;
    net_cfg.handler = [&service, &server_ptr](const std::string& line) {
      return handle_line(service, server_ptr, line);
    };
    net::LineServer server(std::move(net_cfg));
    server_ptr = &server;
    std::fprintf(stderr,
                 "plan_server listening on 127.0.0.1:%u (%u net workers, "
                 "%llu max pending)\n",
                 server.port(), args.count<unsigned>("--net-workers"),
                 static_cast<unsigned long long>(
                     args.count("--max-pending")));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    const std::string& port_file = args.text("--port-file");
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      pf << server.port() << "\n";
    }
    server.join();
    g_server = nullptr;
    std::fprintf(stderr, "plan_server drained, exiting\n");
    return 0;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;  // blank line
    if (cmd == "quit" || cmd == "exit") break;
    std::printf("%s\n", handle_line(service, nullptr, line).c_str());
    std::fflush(stdout);
  }
  return 0;
}
