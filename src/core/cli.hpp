// The command line of every bench and example: one declarative flag
// table per binary, composed from shared row groups, and one parser.
//
// A table is a null-terminated array of Flag rows (the scenario table's
// idiom). A binary passes the shared groups it takes plus its own rows:
//
//   constexpr cli::Flag kOwn[] = {{.name = "--quick", .help = "..."}, {}};
//   const cli::Args args =
//       cli::parse_or_exit(argc, argv, {cli::kCampaignFlags, kOwn});
//   const auto jobs = args.count<unsigned>("--jobs");
//
// The parser takes `--flag value` and `--flag=value`, matches names
// exactly (so `--store-l2` never answers for `--store-l2-dir`) and
// rejects an unknown flag, a repeated flag, a missing value and a
// malformed or out-of-range value (numbers go through the strict parser
// of common/number.hpp).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/profiler_mode.hpp"

namespace cms::core::cli {

/// Hard ceiling on explicit worker and client counts: far above any real
/// machine, low enough that a mistyped value can't build an absurd pool.
inline constexpr std::uint64_t kMaxJobs = 1024;

enum class Kind : std::uint8_t {
  kSwitch,    // present or absent; takes no value
  kUnsigned,  // plain decimal in [min, max]
  kMillis,    // finite milliseconds in [0, max]
  kChoice,    // one of `choices`; a trailing '*' makes that choice a prefix
  kString,    // any non-empty text
};

/// One row of a flag table; a row with a null name ends the table.
struct Flag {
  const char* name = nullptr;
  Kind kind = Kind::kSwitch;
  const char* def = "";      // the value of an absent flag
  const char* choices = "";  // kChoice: "off|ro|rw"
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const char* help = "";

  /// The same row with a binary's own default.
  constexpr Flag with_default(const char* d) const {
    Flag f = *this;
    f.def = d;
    return f;
  }
};

/// Parsed flags: every row of the parsed tables has a value, given or
/// default. Asking for a name the tables lack, or as the wrong kind, is a
/// program bug and throws std::logic_error.
class Args {
 public:
  /// True when the flag was on the command line (for a switch: it is on).
  bool given(std::string_view name) const { return find(name).given; }
  /// kUnsigned value as T. The row's bound must fit T (std::logic_error
  /// otherwise), so a value is never silently truncated.
  template <class T = std::uint64_t>
  T count(std::string_view name) const {
    const Value& v = at(name, Kind::kUnsigned);
    if (v.flag->max > std::numeric_limits<T>::max())
      throw std::logic_error(std::string(name) + " does not fit the type");
    return static_cast<T>(v.count);
  }
  double millis(std::string_view name) const {
    return at(name, Kind::kMillis).millis;
  }
  const std::string& text(std::string_view name) const {
    return at(name, Kind::kString).text;
  }
  /// kChoice value as an enum whose enumerators follow `choices` order.
  template <class E>
  E choice(std::string_view name) const {
    return static_cast<E>(at(name, Kind::kChoice).choice);
  }
  bool help() const { return help_; }

 private:
  friend Args parse(int, const char* const*,
                    std::initializer_list<const Flag*>);
  struct Value {
    const Flag* flag;
    std::string text;
    bool given = false;
    std::uint64_t count = 0;
    double millis = 0.0;
    std::size_t choice = 0;
  };
  const Value& find(std::string_view name) const;
  const Value& at(std::string_view name, Kind kind) const;

  std::vector<Value> values_;
  bool help_ = false;
};

/// Parse argv[1..argc) against the null-terminated `tables`. A bad command
/// line throws std::runtime_error naming the flag and the rule broken;
/// `--help` sets Args::help() and stops parsing. A row in two tables or a
/// bad default throws std::logic_error.
Args parse(int argc, const char* const* argv,
           std::initializer_list<const Flag*> tables);

/// The usage text generated from `tables`.
std::string usage(std::string_view prog,
                  std::initializer_list<const Flag*> tables);

/// parse(), but a bad command line prints the error and the usage to
/// stderr and exits 2 before the caller does any work, and `--help`
/// prints the usage to stdout and exits 0.
Args parse_or_exit(int argc, const char* const* argv,
                   std::initializer_list<const Flag*> tables);

// ---- shared rows and groups --------------------------------------------

inline constexpr Flag kJobs{
    .name = "--jobs", .kind = Kind::kUnsigned, .def = "1", .max = kMaxJobs,
    .help = "campaign worker threads (0 = hardware concurrency)"};
inline constexpr Flag kProfiler{
    .name = "--profiler", .kind = Kind::kChoice, .def = "fullsim",
    .choices = "fullsim|replay",
    .help = "simulate every grid point, or capture once and replay"};
inline constexpr Flag kTraceDir{.name = "--trace-dir", .kind = Kind::kString,
                                .help = "persistent trace-store directory"};
inline constexpr Flag kTrace{.name = "--trace", .kind = Kind::kChoice,
                             .def = "rw", .choices = "off|ro|rw",
                             .help = "trace-store mode"};
inline constexpr Flag kReplayKernel{
    .name = "--replay-kernel", .kind = Kind::kChoice, .def = "auto",
    .choices = "auto|scalar|persize",
    .help = "fused replay kernel (auto = scalar) or the per-size reference"};
inline constexpr Flag kCoalesceWindow{
    .name = "--coalesce-window-ms", .kind = Kind::kMillis, .def = "0",
    .max = 60'000,
    .help = "how long a sweep leader holds its sweep open for merging"};
inline constexpr Flag kPlanCache{
    .name = "--plan-cache", .kind = Kind::kChoice, .def = "disk",
    .choices = "off|mem|disk", .help = "memoized plan cache tiers"};
inline constexpr Flag kPlanCacheBudgetBytes{
    .name = "--plan-cache-budget-bytes", .kind = Kind::kUnsigned,
    .def = "0", .help = "byte budget per plan-cache tier (0 = unlimited)"};
inline constexpr Flag kPlanCacheBudgetEntries{
    .name = "--plan-cache-budget-entries", .kind = Kind::kUnsigned,
    .def = "0", .help = "entry budget per plan-cache tier (0 = unlimited)"};

/// How a binary runs its campaigns.
inline constexpr Flag kCampaignFlags[] = {kJobs, kProfiler, {}};

/// The capture store: a local directory, optionally the L1 of a tiered
/// store over a far tier (a directory or a tcp://host:port blob_server).
inline constexpr Flag kStoreFlags[] = {
    kTraceDir,
    kTrace,
    {.name = "--store-l2-dir", .kind = Kind::kString,
     .help = "far store tier: a directory or tcp://host:port"},
    {.name = "--store-l2", .kind = Kind::kChoice, .def = "rw",
     .choices = "off|ro|rw|tcp://*",
     .help = "far-tier mode; tcp://host:port is a read-write far tier"},
    {}};

/// The planning service's trace-store budgets and plan cache.
inline constexpr Flag kServiceFlags[] = {
    {.name = "--service-budget-bytes", .kind = Kind::kUnsigned, .def = "0",
     .help = "trace-store byte budget (0 = unlimited)"},
    {.name = "--service-budget-entries", .kind = Kind::kUnsigned, .def = "0",
     .help = "trace-store entry budget (0 = unlimited)"},
    kPlanCache,
    kPlanCacheBudgetBytes,
    kPlanCacheBudgetEntries,
    {}};

/// A socket server's listener, worker pool and admission queue.
inline constexpr Flag kNetFlags[] = {
    {.name = "--port", .kind = Kind::kUnsigned, .def = "0", .max = 65535,
     .help = "listen on 127.0.0.1:N (0 = ephemeral)"},
    {.name = "--port-file", .kind = Kind::kString,
     .help = "write the resolved port here once listening"},
    {.name = "--net-workers", .kind = Kind::kUnsigned, .def = "8", .min = 1,
     .max = kMaxJobs, .help = "worker threads (requests in flight)"},
    {.name = "--max-pending", .kind = Kind::kUnsigned, .def = "256",
     .min = 1, .help = "admission-queue bound; excess is shed as busy"},
    {}};

/// The store the kStoreFlags group describes.
struct StoreChoice {
  std::string dir;
  TraceMode mode = TraceMode::kReadWrite;
  /// --store-l2-dir when given, else a tcp:// value of --store-l2, else "".
  std::string l2_target;
  /// --store-l2; a tcp:// value means kReadWrite.
  StoreL2Mode l2 = StoreL2Mode::kReadWrite;
};
StoreChoice store_choice(const Args& args);

}  // namespace cms::core::cli
