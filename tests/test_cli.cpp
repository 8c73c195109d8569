// Tests for the flag table and the shared number parser: accepted and
// rejected --jobs forms (the validation must be stricter than strtoul),
// the choice flags, the tiered-store flags (--store-l2 / --store-l2-dir
// share a prefix and must never be confused for one another), the
// socket-server flags (--port presence semantics, worker/queue bounds,
// the coalesce-window float validation), the --service-clients bound,
// and the parser's own rules: unknown, repeated and value-less flags are
// errors, --help is recognised, and a bad command line exits 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/number.hpp"
#include "core/cli.hpp"
#include "opt/replay_kernel_mode.hpp"

namespace cms::core::cli {
namespace {

constexpr Flag kQuick[] = {{.name = "--quick", .help = "q"}, {}};
constexpr Flag kOwnJobs[] = {kJobs, {}};

Args parse_of(std::vector<const char*> args,
              std::initializer_list<const Flag*> tables) {
  args.insert(args.begin(), "prog");
  return parse(static_cast<int>(args.size()), args.data(), tables);
}

/// The message a command line is rejected with ("" = accepted).
std::string error_of(std::vector<const char*> args,
                     std::initializer_list<const Flag*> tables) {
  try {
    parse_of(std::move(args), tables);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

bool rejected(std::vector<const char*> args,
              std::initializer_list<const Flag*> tables) {
  return !error_of(std::move(args), tables).empty();
}

unsigned jobs_of(std::vector<const char*> args) {
  return parse_of(std::move(args), {kOwnJobs, kQuick})
      .count<unsigned>("--jobs");
}

TEST(ParseJobs, AcceptsPlainDecimal) {
  EXPECT_EQ(jobs_of({"--jobs", "4"}), 4u);
  EXPECT_EQ(jobs_of({"--jobs=8"}), 8u);
  EXPECT_EQ(jobs_of({"--jobs", "0"}), 0u);  // 0 = hardware concurrency
  EXPECT_EQ(jobs_of({"--jobs=1024"}), static_cast<unsigned>(kMaxJobs));
}

TEST(ParseJobs, AbsentFlagKeepsDefault) {
  EXPECT_EQ(jobs_of({}), 1u);
  EXPECT_EQ(jobs_of({"--quick"}), 1u);
  constexpr Flag kSeven[] = {kJobs.with_default("7"), {}};
  EXPECT_EQ(parse_of({}, {kSeven}).count("--jobs"), 7u);
}

TEST(ParseJobs, RejectsStrtoulQuirks) {
  // strtoul accepts all of these; the flag validation must not.
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--jobs=+5"},
           {"--jobs", "+5"},
           {"--jobs", " 5"},
           {"--jobs=\t5"},
           {"--jobs", "-1"},
           {"--jobs=0x10"}}) {
    const std::string err = error_of(args, {kOwnJobs});
    EXPECT_NE(err.find("bad --jobs value"), std::string::npos)
        << args.back() << ": " << err;
  }
}

TEST(ParseJobs, RejectsMalformedAndOutOfRange) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--jobs"},                          // missing value
           {"--jobs", "--quick"},               // typo'd value
           {"--jobs="},                         // empty value
           {"--jobs", "4x"},                    // trailing junk
           {"--jobs=1025"},                     // above kMaxJobs
           {"--jobs=99999999999999999999"}}) {  // overflow
    EXPECT_TRUE(rejected(args, {kOwnJobs, kQuick})) << args.back();
  }
  EXPECT_NE(error_of({"--jobs", "--quick"}, {kOwnJobs, kQuick})
                .find("--jobs needs a value"),
            std::string::npos);
}

ProfilerMode profiler_of(std::vector<const char*> args) {
  return parse_of(std::move(args), {kCampaignFlags})
      .choice<ProfilerMode>("--profiler");
}

TEST(ParseProfiler, AcceptsBothModes) {
  EXPECT_EQ(profiler_of({"--profiler", "fullsim"}), ProfilerMode::kFullSim);
  EXPECT_EQ(profiler_of({"--profiler=replay"}), ProfilerMode::kTraceReplay);
  EXPECT_EQ(profiler_of({"--profiler", "replay"}), ProfilerMode::kTraceReplay);
}

TEST(ParseProfiler, DefaultAndBadValues) {
  EXPECT_EQ(profiler_of({}), ProfilerMode::kFullSim);
  constexpr Flag kReplay[] = {kProfiler.with_default("replay"), {}};
  EXPECT_EQ(parse_of({}, {kReplay}).choice<ProfilerMode>("--profiler"),
            ProfilerMode::kTraceReplay);
  EXPECT_TRUE(rejected({"--profiler=warp"}, {kCampaignFlags}));
  EXPECT_TRUE(rejected({"--profiler"}, {kCampaignFlags}));
  EXPECT_TRUE(rejected({"--profiler=REPLAY"}, {kCampaignFlags}));
}

TEST(HasFlag, ExactMatchOnly) {
  EXPECT_TRUE(parse_of({"--quick"}, {kQuick}).given("--quick"));
  EXPECT_FALSE(parse_of({}, {kQuick}).given("--quick"));
  EXPECT_NE(error_of({"--quicker"}, {kQuick}).find("unknown flag '--quicker'"),
            std::string::npos);
  EXPECT_TRUE(rejected({"--quick=1"}, {kQuick}));  // a switch takes no value
}

opt::ReplayKernel kernel_of(std::vector<const char*> args) {
  constexpr Flag kTable[] = {kReplayKernel, {}};
  return parse_of(std::move(args), {kTable})
      .choice<opt::ReplayKernel>("--replay-kernel");
}

TEST(ParseReplayKernel, AcceptsAllEngines) {
  EXPECT_EQ(kernel_of({"--replay-kernel", "auto"}), opt::ReplayKernel::kAuto);
  EXPECT_EQ(kernel_of({"--replay-kernel=scalar"}),
            opt::ReplayKernel::kScalar);
  EXPECT_EQ(kernel_of({"--replay-kernel", "persize"}),
            opt::ReplayKernel::kPerSize);
}

TEST(ParseReplayKernel, DefaultAndBadValues) {
  EXPECT_EQ(kernel_of({}), opt::ReplayKernel::kAuto);
  constexpr Flag kTable[] = {kReplayKernel, {}};
  for (const char* bad :
       {"--replay-kernel=avx512", "--replay-kernel", "--replay-kernel=AVX2"})
    EXPECT_TRUE(rejected({bad}, {kTable})) << bad;
  // Engines that no longer exist are errors, not a silent mapping onto
  // the fused kernel.
  for (const char* removed : {"--replay-kernel=sse4", "--replay-kernel=avx2"})
    EXPECT_NE(error_of({removed}, {kTable}).find("bad --replay-kernel value"),
              std::string::npos)
        << removed;
  EXPECT_TRUE(rejected({"--replay-kernel", "sse4"}, {kTable}));
}

PlanCacheMode plan_cache_of(std::vector<const char*> args) {
  return parse_of(std::move(args), {kServiceFlags})
      .choice<PlanCacheMode>("--plan-cache");
}

TEST(ParsePlanCache, AcceptsAllModes) {
  EXPECT_EQ(plan_cache_of({"--plan-cache", "off"}), PlanCacheMode::kOff);
  EXPECT_EQ(plan_cache_of({"--plan-cache=mem"}), PlanCacheMode::kMemory);
  EXPECT_EQ(plan_cache_of({"--plan-cache", "disk"}), PlanCacheMode::kDisk);
}

TEST(ParsePlanCache, DefaultAndBadValues) {
  EXPECT_EQ(plan_cache_of({}), PlanCacheMode::kDisk);
  EXPECT_TRUE(rejected({"--plan-cache=ram"}, {kServiceFlags}));
  EXPECT_TRUE(rejected({"--plan-cache"}, {kServiceFlags}));
  // The budget flags share the prefix; they must not be mistaken for the
  // mode flag itself.
  const Args args = parse_of({"--plan-cache-budget-bytes", "5"},
                             {kServiceFlags});
  EXPECT_FALSE(args.given("--plan-cache"));
  EXPECT_EQ(args.choice<PlanCacheMode>("--plan-cache"), PlanCacheMode::kDisk);
  EXPECT_EQ(args.count("--plan-cache-budget-bytes"), 5u);
}

TEST(ParsePlanCacheBudgets, ParseAsPlainDecimalU64) {
  const Args args = parse_of(
      {"--plan-cache-budget-bytes=4096", "--plan-cache-budget-entries", "8"},
      {kServiceFlags});
  EXPECT_EQ(args.count("--plan-cache-budget-bytes"), 4096u);
  EXPECT_EQ(args.count("--plan-cache-budget-entries"), 8u);
  EXPECT_EQ(parse_of({}, {kServiceFlags}).count("--plan-cache-budget-bytes"),
            0u);
  EXPECT_TRUE(rejected({"--plan-cache-budget-bytes=64k"}, {kServiceFlags}));
}

StoreChoice store_of(std::vector<const char*> args) {
  return store_choice(parse_of(std::move(args), {kStoreFlags}));
}

TEST(ParseStoreL2, AcceptsAllModes) {
  EXPECT_EQ(store_of({"--store-l2", "off"}).l2, StoreL2Mode::kOff);
  EXPECT_EQ(store_of({"--store-l2=ro"}).l2, StoreL2Mode::kReadOnly);
  EXPECT_EQ(store_of({"--store-l2", "rw"}).l2, StoreL2Mode::kReadWrite);
  EXPECT_EQ(store_of({"--trace=off"}).mode, TraceMode::kOff);
  EXPECT_EQ(store_of({"--trace", "ro"}).mode, TraceMode::kReadOnly);
  EXPECT_EQ(store_of({"--trace-dir", "d"}).dir, "d");
}

TEST(ParseStoreL2, DefaultAndBadValues) {
  EXPECT_EQ(store_of({}).l2, StoreL2Mode::kReadWrite);
  EXPECT_EQ(store_of({}).mode, TraceMode::kReadWrite);
  for (const char* bad : {"--store-l2=readonly", "--store-l2", "--store-l2=RO",
                          "--store-l2=tcp://"})
    EXPECT_TRUE(rejected({bad}, {kStoreFlags})) << bad;
  // The dir flag shares the prefix; it must not be mistaken for the mode
  // flag (nor its directory swallowed as a mode value).
  EXPECT_EQ(store_of({"--store-l2-dir", "far"}).l2, StoreL2Mode::kReadWrite);
  EXPECT_EQ(store_of({"--store-l2-dir=far", "--store-l2=ro"}).l2,
            StoreL2Mode::kReadOnly);
}

TEST(ParseStoreL2Dir, BothFormsAndDefault) {
  EXPECT_EQ(store_of({"--store-l2-dir", "far"}).l2_target, "far");
  EXPECT_EQ(store_of({"--store-l2-dir=/tmp/far"}).l2_target, "/tmp/far");
  EXPECT_EQ(store_of({}).l2_target, "");
  EXPECT_TRUE(rejected({"--store-l2-dir"}, {kStoreFlags}));  // missing value
  // The mode flag must not leak its value into the directory.
  EXPECT_EQ(store_of({"--store-l2", "rw"}).l2_target, "");
}

TEST(ParseStoreL2, TcpEndpointImpliesReadWrite) {
  // `--store-l2 tcp://host:port` is the networked far tier in one flag:
  // the value doubles as the target, and the mode is rw.
  EXPECT_EQ(store_of({"--store-l2", "tcp://10.0.0.1:9000"}).l2,
            StoreL2Mode::kReadWrite);
  EXPECT_EQ(store_of({"--store-l2=tcp://h:1"}).l2, StoreL2Mode::kReadWrite);
}

TEST(ParseStoreL2Target, DirWinsThenTcpModeValue) {
  // The explicit dir flag (which itself may carry a tcp:// url) always
  // wins; otherwise a tcp:// mode value is the target; otherwise none.
  EXPECT_EQ(store_of({"--store-l2-dir", "far"}).l2_target, "far");
  EXPECT_EQ(store_of({"--store-l2-dir=tcp://h:1"}).l2_target, "tcp://h:1");
  EXPECT_EQ(store_of({"--store-l2", "tcp://h:2"}).l2_target, "tcp://h:2");
  EXPECT_EQ(
      store_of({"--store-l2-dir", "far", "--store-l2=tcp://h:3"}).l2_target,
      "far");
  EXPECT_EQ(store_of({"--store-l2", "rw"}).l2_target, "");  // a mode
  EXPECT_EQ(store_of({}).l2_target, "");
}

constexpr Flag kClients[] = {
    {.name = "--service-clients", .kind = Kind::kUnsigned, .def = "4",
     .min = 1, .max = kMaxJobs},
    {}};

TEST(ParseServiceClients, AcceptsSaneCounts) {
  const auto clients = [](std::vector<const char*> args) {
    return parse_of(std::move(args), {kClients})
        .count<unsigned>("--service-clients");
  };
  EXPECT_EQ(clients({"--service-clients", "8"}), 8u);
  EXPECT_EQ(clients({"--service-clients=1"}), 1u);
  EXPECT_EQ(clients({"--service-clients=1024"}), 1024u);
  EXPECT_EQ(clients({}), 4u);
}

TEST(ParseServiceClients, UpperBoundSanity) {
  // Every thread is a real client connection in the benches: a mistyped
  // count must be an error, not a 99999-thread army.
  for (const char* bad :
       {"--service-clients=0", "--service-clients=1025",
        "--service-clients=99999", "--service-clients=8x"})
    EXPECT_TRUE(rejected({bad}, {kClients})) << bad;
}

TEST(ParsePort, PresenceSelectsSocketMode) {
  EXPECT_TRUE(parse_of({"--port", "0"}, {kNetFlags}).given("--port"));
  EXPECT_TRUE(parse_of({"--port=8080"}, {kNetFlags}).given("--port"));
  EXPECT_FALSE(parse_of({}, {kNetFlags}).given("--port"));
  // A shared prefix is NOT the flag (--port-file vs --port).
  const Args args = parse_of({"--port-file", "x"}, {kNetFlags});
  EXPECT_FALSE(args.given("--port"));
  EXPECT_EQ(args.text("--port-file"), "x");
  EXPECT_TRUE(rejected({"--port"}, {kNetFlags}));  // bare: missing value
}

TEST(ParsePort, RangeAndDefault) {
  EXPECT_EQ(parse_of({"--port=8080"}, {kNetFlags}).count<std::uint16_t>(
                "--port"),
            8080);
  EXPECT_EQ(parse_of({"--port", "0"}, {kNetFlags}).count("--port"), 0u);
  EXPECT_EQ(parse_of({"--port=65535"}, {kNetFlags}).count("--port"), 65535u);
  EXPECT_TRUE(rejected({"--port=65536"}, {kNetFlags}));
  EXPECT_EQ(parse_of({}, {kNetFlags}).count("--port"), 0u);
}

TEST(ParseNetWorkers, BoundsLikeJobs) {
  EXPECT_EQ(parse_of({"--net-workers=32"}, {kNetFlags}).count("--net-workers"),
            32u);
  EXPECT_EQ(parse_of({}, {kNetFlags}).count("--net-workers"), 8u);
  EXPECT_TRUE(rejected({"--net-workers=0"}, {kNetFlags}));
  EXPECT_TRUE(rejected({"--net-workers=1025"}, {kNetFlags}));
}

TEST(ParseMaxPending, RejectsZero) {
  EXPECT_EQ(parse_of({"--max-pending=2"}, {kNetFlags}).count("--max-pending"),
            2u);
  EXPECT_EQ(parse_of({}, {kNetFlags}).count("--max-pending"), 256u);
  EXPECT_TRUE(rejected({"--max-pending=0"}, {kNetFlags}));
}

double window_of(std::vector<const char*> args) {
  constexpr Flag kTable[] = {kCoalesceWindow, {}};
  return parse_of(std::move(args), {kTable}).millis("--coalesce-window-ms");
}

TEST(ParseCoalesceWindow, AcceptsFiniteMilliseconds) {
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms", "150"}), 150.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=2.5"}), 2.5);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=0"}), 0.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=60000"}), 60000.0);
  EXPECT_DOUBLE_EQ(window_of({}), 0.0);
  constexpr Flag k250[] = {kCoalesceWindow.with_default("250"), {}};
  EXPECT_DOUBLE_EQ(parse_of({}, {k250}).millis("--coalesce-window-ms"),
                   250.0);
}

TEST(ParseCoalesceWindow, RejectsNonFiniteAndAbsurd) {
  constexpr Flag kTable[] = {kCoalesceWindow, {}};
  for (const char* bad :
       {"--coalesce-window-ms=-1", "--coalesce-window-ms=nan",
        "--coalesce-window-ms=inf", "--coalesce-window-ms=60001",
        "--coalesce-window-ms=5ms", "--coalesce-window-ms="})
    EXPECT_TRUE(rejected({bad}, {kTable})) << bad;
}

TEST(FlagTable, RejectsUnknownRepeatedAndValuelessFlags) {
  EXPECT_NE(error_of({"--jobs", "2", "--bogus"}, {kCampaignFlags})
                .find("unknown flag '--bogus'"),
            std::string::npos);
  EXPECT_NE(error_of({"--jbos", "2"}, {kCampaignFlags}).find("--jbos"),
            std::string::npos);
  EXPECT_NE(error_of({"stray"}, {kCampaignFlags}).find("unexpected argument"),
            std::string::npos);
  // A repeat is an error whatever the values, like a repeated plan option.
  EXPECT_NE(error_of({"--jobs", "2", "--jobs=2"}, {kCampaignFlags})
                .find("repeated flag '--jobs'"),
            std::string::npos);
  EXPECT_TRUE(rejected({"--quick", "--quick"}, {kQuick}));
  // A trailing flag with no value.
  EXPECT_NE(error_of({"--profiler", "replay", "--jobs"}, {kCampaignFlags})
                .find("--jobs needs a value"),
            std::string::npos);
}

TEST(FlagTable, HelpIsRecognisedAndUsageListsEveryRow) {
  EXPECT_TRUE(parse_of({"--help"}, {kCampaignFlags}).help());
  EXPECT_TRUE(parse_of({"--jobs", "2", "--help", "--bogus"}, {kCampaignFlags})
                  .help());
  EXPECT_FALSE(parse_of({}, {kCampaignFlags}).help());
  const std::string text =
      usage("./build/table2_mpeg2", {kCampaignFlags, kStoreFlags});
  EXPECT_EQ(text.rfind("usage: table2_mpeg2 ", 0), 0u) << text;
  for (const Flag* table : {kCampaignFlags, kStoreFlags})
    for (const Flag* f = table; f->name != nullptr; ++f)
      EXPECT_NE(text.find(f->name), std::string::npos) << f->name;
  EXPECT_NE(text.find("--help"), std::string::npos);
  EXPECT_NE(text.find("[default fullsim]"), std::string::npos);
}

TEST(FlagTable, SharedGroupsComposeWithValidDefaults) {
  // Every shared row's default parses, and no row is in two groups.
  const Args args = parse_of(
      {}, {kCampaignFlags, kStoreFlags, kServiceFlags, kNetFlags});
  EXPECT_EQ(args.text("--trace-dir"), "");
  EXPECT_FALSE(args.given("--trace-dir"));
  constexpr Flag kDup[] = {kJobs, {}};
  EXPECT_THROW(parse_of({}, {kCampaignFlags, kDup}), std::logic_error);
  constexpr Flag kBadDefault[] = {kJobs.with_default("many"), {}};
  EXPECT_THROW(parse_of({}, {kBadDefault}), std::logic_error);
  // Asking for a row the tables lack, or as the wrong kind, is a bug.
  EXPECT_THROW(args.given("--no-such-row"), std::logic_error);
  EXPECT_THROW(args.millis("--jobs"), std::logic_error);
  // A row whose bound does not fit the asked type never truncates.
  EXPECT_THROW(args.count<std::uint16_t>("--max-pending"), std::logic_error);
}

TEST(FlagTableDeathTest, BadCommandLineExitsTwoAndHelpExitsZero) {
  const auto run = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    parse_or_exit(static_cast<int>(args.size()), args.data(),
                  {kCampaignFlags});
  };
  EXPECT_EXIT(run({"--jbos", "2", "--bogus"}), testing::ExitedWithCode(2),
              "unknown flag '--jbos'(.|\n)*usage: prog");
  EXPECT_EXIT(run({"--jobs", "--quick"}), testing::ExitedWithCode(2),
              "--jobs needs a value");
  EXPECT_EXIT(run({"--help"}), testing::ExitedWithCode(0), "");
}

TEST(NumberParse, DecimalIsStrictAndOverflowChecked) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  struct Case {
    const char* text;
    std::uint64_t max;
    NumberParse want;
    std::uint64_t value;
  };
  for (const Case& c : std::vector<Case>{
           {"0", kMax, NumberParse::kOk, 0},
           {"42", kMax, NumberParse::kOk, 42},
           {"007", kMax, NumberParse::kOk, 7},
           {"18446744073709551615", kMax, NumberParse::kOk, kMax},
           {"", kMax, NumberParse::kMalformed, 0},
           {"+5", kMax, NumberParse::kMalformed, 0},
           {"-1", kMax, NumberParse::kMalformed, 0},
           {" 5", kMax, NumberParse::kMalformed, 0},
           {"5 ", kMax, NumberParse::kMalformed, 0},
           {"0x10", kMax, NumberParse::kMalformed, 0},
           {"64k", kMax, NumberParse::kMalformed, 0},
           {"18446744073709551616", kMax, NumberParse::kOutOfRange, 0},
           {"99999999999999999999", kMax, NumberParse::kOutOfRange, 0},
           {"99999999999999999999x", kMax, NumberParse::kMalformed, 0},
           {"65535", 65535, NumberParse::kOk, 65535},
           {"65536", 65535, NumberParse::kOutOfRange, 0},
           {"1025", 1024, NumberParse::kOutOfRange, 0}}) {
    std::uint64_t out = 0;
    EXPECT_EQ(parse_decimal(c.text, out, c.max), c.want) << c.text;
    EXPECT_EQ(out, c.value) << c.text;
  }
}

TEST(NumberParse, DoubleIsFiniteAndNonNegative) {
  double out = -1.0;
  EXPECT_EQ(parse_nonneg_double("2.5", out), NumberParse::kOk);
  EXPECT_EQ(out, 2.5);
  EXPECT_EQ(parse_nonneg_double("0", out), NumberParse::kOk);
  EXPECT_EQ(out, 0.0);
  EXPECT_EQ(parse_nonneg_double("60000", out, 60000.0), NumberParse::kOk);
  EXPECT_EQ(parse_nonneg_double("60001", out, 60000.0),
            NumberParse::kOutOfRange);
  EXPECT_EQ(parse_nonneg_double("1e999", out), NumberParse::kOutOfRange);
  for (const char* bad : {"", "-1", "-0.5", "nan", "NaN", "inf", "-inf",
                          "0.5x", "5ms", "+5", " 5"})
    EXPECT_EQ(parse_nonneg_double(bad, out), NumberParse::kMalformed) << bad;
  EXPECT_EQ(out, 60000.0);  // untouched by every rejection
}

}  // namespace
}  // namespace cms::core::cli
