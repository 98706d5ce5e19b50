#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "actyp/scenario.hpp"
#include "alloc_counter.hpp"
#include "db/database.hpp"
#include "net/message.hpp"
#include "pipeline/protocol.hpp"
#include "profile/stage_profiler.hpp"
#include "query/parser.hpp"
#include "sched/index.hpp"
#include "sched/policy.hpp"
#include "spans.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

using actyp::Config;
using actyp::ScenarioConfig;
using actyp::SimDuration;
using actyp::SimScenario;
using actyp::SimTime;
using Clock = std::chrono::steady_clock;

// Seeded replications whose windows the modeled metrics pool.
constexpr std::size_t kReplications = 8;
// Repetitions of each differential variant in the traced run.
constexpr std::size_t kTraceReps = 5;
// LP workers the traced run compares with 1.
constexpr std::size_t kLpJobs = 4;
// Host time each isolated layer call is repeated for.
constexpr double kLayerBudgetS = 0.2;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time of the whole process, every thread, user and system.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

long CurrentRssKb() {
  std::ifstream statm("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * (sysconf(_SC_PAGESIZE) / 1024);
}

// Results of timed loops land here so the loops cannot be optimized
// away.
std::atomic<std::uint64_t> g_sink{0};
void Keep(std::uint64_t value) {
  g_sink.store(value, std::memory_order_relaxed);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Minimal writer for the flat JSON objects this harness prints.
class Json {
 public:
  Json& Num(const char* key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Raw(key, buf);
  }
  Json& Int(const char* key, std::uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Nums(const char* key, const std::vector<double>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      list += (i == 0 ? "" : ",");
      list += buf;
    }
    return Raw(key, list + "]");
  }
  Json& Raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Require(const Config& config, const char* key) {
  if (!config.Has(key)) {
    throw std::runtime_error(std::string("config key missing: ") + key);
  }
  return config.GetDouble(key, 0);
}

std::size_t Size(const Config& config, const char* key, std::size_t fallback) {
  const std::int64_t value =
      config.GetInt(key, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw std::runtime_error(std::string("negative config value: ") + key);
  }
  return static_cast<std::size_t>(value);
}

// Simulation seeds of the replications, drawn in order from the
// workload seed, so replication i's seed depends on nothing else.
class ReplicationSeeds {
 public:
  explicit ReplicationSeeds(const Config& c) {
    if (!c.Has("seed")) throw std::runtime_error("config key missing: seed");
    state_ = static_cast<std::uint64_t>(c.GetInt("seed", 0));
  }
  std::uint64_t Next() { return actyp::SplitMix64(state_); }

 private:
  std::uint64_t state_ = 0;
};

// The deployment the workload describes. Keys absent from the config
// keep the program's own ScenarioConfig defaults.
ScenarioConfig ToScenario(const Config& c) {
  ScenarioConfig s;
  s.machines = Size(c, "machines", s.machines);
  s.clusters = Size(c, "clusters", s.clusters);
  s.pool_segments =
      static_cast<std::uint32_t>(Size(c, "pool_segments", s.pool_segments));
  s.pool_replicas =
      static_cast<std::uint32_t>(Size(c, "pool_replicas", s.pool_replicas));
  s.policy = c.GetOr("policy", s.policy);
  s.query_managers = Size(c, "query_managers", s.query_managers);
  s.pool_managers = Size(c, "pool_managers", s.pool_managers);
  s.qos_fanout =
      static_cast<std::uint32_t>(Size(c, "qos_fanout", s.qos_fanout));
  s.clients = Size(c, "clients", s.clients);
  s.wan = c.GetBool("wan", s.wan);
  s.wan_sites = Size(c, "wan_sites", s.wan_sites);
  s.cell_jobs = Size(c, "cell_jobs", s.cell_jobs);
  s.directory_replicas = static_cast<std::uint32_t>(
      Size(c, "directory_replicas", s.directory_replicas));
  s.retry_max = Size(c, "retry_max", s.retry_max);
  if (c.Has("request_timeout_s")) {
    s.client_request_timeout =
        actyp::Seconds(c.GetDouble("request_timeout_s", 0));
  }
  // Held jobs: uniform in hold_s * [1 - hold_jitter, 1 + hold_jitter],
  // so the mean hold is hold_s whatever the jitter.
  const double hold_s = c.GetDouble("hold_s", 0);
  const double jitter = std::clamp(c.GetDouble("hold_jitter", 0), 0.0, 1.0);
  if (hold_s > 0) {
    s.job_duration = [hold_s, jitter](actyp::Rng& rng) {
      const double scale =
          jitter > 0 ? rng.Uniform(1 - jitter, 1 + jitter) : 1.0;
      return std::max<SimDuration>(1, actyp::Seconds(hold_s * scale));
    };
  }
  const double churn_rate = c.GetDouble("churn_rate", 0);
  if (churn_rate > 0) {
    s.fault_plan.AddChurn(churn_rate,
                          actyp::Seconds(c.GetDouble("churn_downtime_s", 5)));
  }
  s.seed = ReplicationSeeds(c).Next();
  return s;
}

// What the checks need to know about the deployment that actually ran,
// read back from the program's public configuration.
std::string DeploymentJson(const SimScenario& s) {
  const ScenarioConfig& c = s.config();
  Json costs;
  costs.Num("qm_translate_s", actyp::ToSeconds(c.costs.qm_translate))
      .Num("pm_map_s", actyp::ToSeconds(c.costs.pm_map))
      .Num("pool_fixed_s", actyp::ToSeconds(c.costs.pool_fixed))
      .Num("pool_per_machine_s", actyp::ToSeconds(c.costs.pool_per_machine));
  Json j;
  j.Int("machines", c.machines)
      .Int("clusters", c.clusters)
      .Int("pool_segments", c.pool_segments)
      .Int("pool_replicas", c.pool_replicas)
      .Int("qos_fanout", c.qos_fanout)
      .Int("clients", c.clients)
      .Bool("lp_mode", s.lp_mode())
      .Int("directory_replicas", c.directory_replicas)
      .Num("wan_one_way_s", actyp::ToSeconds(c.wan_one_way))
      .Num("wan_jitter_s", actyp::ToSeconds(c.wan_jitter))
      .Raw("costs", costs.str());
  return j.str();
}

struct ClientTally {
  std::uint64_t sent = 0;      // first sends (retries are not counted)
  std::uint64_t inflight = 0;  // clients with a request outstanding
};

ClientTally Tally(const SimScenario& s) {
  ClientTally t;
  for (const auto& client : s.clients()) {
    t.sent += client->stats().sent;
    t.inflight += client->inflight_request() != 0 ? 1 : 0;
  }
  return t;
}

// Modeled outcome of a measurement span that started (collector reset)
// at `start`; `pool_start` is TotalPoolStats at the same moment.
std::string ModeledJson(SimScenario& s, const ClientTally& start,
                        const actyp::pipeline::PoolStats& pool_start,
                        double window_s) {
  auto& collector = s.collector();
  const auto stats = collector.response_stats();
  const ClientTally end = Tally(s);
  const auto pool = s.TotalPoolStats();
  Json j;
  j.Num("window_s", window_s)
      .Int("completed", collector.completed())
      .Int("failed", collector.failures())
      .Num("mean_s", stats.mean())
      .Num("min_s", stats.min())
      .Num("p50_s", collector.QuantileSeconds(0.50))
      .Num("p99_s", collector.QuantileSeconds(0.99))
      .Int("sent", end.sent - start.sent)
      .Int("inflight_start", start.inflight)
      .Int("inflight_end", end.inflight)
      .Int("pool_allocations", pool.allocations - pool_start.allocations);
  return j.str();
}

// ---------------------------------------------------------------------------
// End-to-end run.
// ---------------------------------------------------------------------------

struct RoundResult {
  double cpu_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t allocs = 0;
};

// Advances `s` to `until` and reports what that round cost the host.
RoundResult RunRound(SimScenario& s, SimTime until) {
  const std::uint64_t completed0 = s.collector().completed();
  const std::uint64_t allocs0 = AllocationCount();
  const double cpu0 = CpuSeconds();
  s.RunUntil(until);
  RoundResult round;
  round.cpu_s = CpuSeconds() - cpu0;
  round.allocs = AllocationCount() - allocs0;
  round.completed = s.collector().completed() - completed0;
  return round;
}

}  // namespace

std::string RunEndToEnd(const Config& config) {
  const ScenarioConfig base = ToScenario(config);
  ReplicationSeeds seeds(config);
  const SimTime warmup = actyp::Seconds(Require(config, "warmup_s"));
  const SimDuration window = actyp::Seconds(Require(config, "window_s"));
  const double host_seconds = Require(config, "host_seconds");
  const auto chunks = static_cast<SimDuration>(Require(config, "chunks"));
  if (chunks < 1) throw std::runtime_error("chunks must be at least 1");

  // One replication per seed: build (a set-up sample), warm up, measure
  // one window in `chunks` rounds (host-cost samples). The run makes
  // kReplications replications and then starts further ones, on the
  // next seeds, until `host_seconds` have passed. The modeled results
  // pool the first kReplications windows only, so they are fixed by the
  // workload seed alone; every window is checked. The end-to-end
  // workloads run on one thread, so host cost is process CPU time,
  // which other tenants' time slices do not inflate.
  std::vector<double> setup_s;
  std::vector<RoundResult> rounds;
  std::string replications = "[";
  actyp::workload::ResponseCollector pooled;
  std::unique_ptr<SimScenario> s;
  const auto run_start = Clock::now();
  for (std::size_t r = 0; r < kReplications || Since(run_start) < host_seconds;
       ++r) {
    s.reset();
    ScenarioConfig replication = base;
    replication.seed = seeds.Next();
    const double cpu0 = CpuSeconds();
    s = std::make_unique<SimScenario>(replication);
    setup_s.push_back(CpuSeconds() - cpu0);
    s->RunUntil(warmup);
    s->ResetMeasurement();
    const ClientTally start = Tally(*s);
    const auto pool_start = s->TotalPoolStats();
    for (SimDuration c = 1; c <= chunks; ++c) {
      rounds.push_back(RunRound(*s, warmup + window * c / chunks));
    }
    replications += (replications.size() > 1 ? "," : "") +
                    ModeledJson(*s, start, pool_start,
                                actyp::ToSeconds(window));
    if (r < kReplications) pooled.MergeFrom(s->collector());
  }

  std::vector<double> cpu_s, completed, allocs;
  for (const RoundResult& r : rounds) {
    cpu_s.push_back(r.cpu_s);
    completed.push_back(static_cast<double>(r.completed));
    allocs.push_back(static_cast<double>(r.allocs));
  }
  Json round_json;
  round_json.Nums("cpu_s", cpu_s)
      .Nums("completed", completed)
      .Nums("allocs", allocs);
  Json pooled_json;
  pooled_json.Int("completed", pooled.completed())
      .Num("p50_s", pooled.QuantileSeconds(0.50))
      .Num("p99_s", pooled.QuantileSeconds(0.99))
      .Num("window_s",
           actyp::ToSeconds(window) * static_cast<double>(kReplications));
  Json j;
  j.Str("mode", "run")
      .Raw("deployment", DeploymentJson(*s))
      .Nums("setup_s", setup_s)
      .Raw("rounds", round_json.str())
      .Raw("replications", replications + "]")
      .Raw("pooled", pooled_json.str())
      .Int("peak_rss_kb", static_cast<std::uint64_t>(PeakRssKb()));
  return j.str();
}

// ---------------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------------

namespace {

std::size_t PoolSize(const ScenarioConfig& c) {
  const std::size_t clusters = std::max<std::size_t>(1, c.clusters);
  return std::max<std::size_t>(
      1, c.machines / clusters / std::max<std::uint32_t>(1, c.pool_segments));
}

// Repeats `op` in batches until `budget_s` of host time has passed;
// returns host seconds per call and the number of calls.
std::pair<double, std::uint64_t> TimePerCall(const std::function<void()>& op,
                                             std::uint64_t batch,
                                             double budget_s) {
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (std::uint64_t i = 0; i < batch; ++i) op();
    calls += batch;
    elapsed = Since(t0);
  } while (elapsed < budget_s);
  return {elapsed / static_cast<double>(calls), calls};
}

// The workload's policy Select over a synthetic cache of its pool size.
// Indexed policies select through the SchedulingIndex the pools keep.
double SelectNs(const ScenarioConfig& c, double budget_s) {
  auto policy = actyp::sched::MakePolicy(c.policy);
  if (!policy.ok()) throw std::runtime_error("unknown policy: " + c.policy);
  actyp::Rng rng(c.seed ^ 0x5e1ec7ULL);
  std::vector<actyp::sched::CacheEntry> cache(PoolSize(c));
  for (std::size_t i = 0; i < cache.size(); ++i) {
    auto& e = cache[i];
    e.id = static_cast<actyp::db::MachineId>(i);
    e.load = rng.Uniform(0.0, 1.5);
    e.available_memory_mb = rng.Uniform(64, 1024);
    e.effective_speed = rng.Uniform(0.5, 3.0);
    e.num_cpus = 1 + static_cast<int>(rng.NextBounded(2));
    e.allocated = rng.NextDouble() < 0.05;
  }
  actyp::sched::SelectionContext ctx;
  ctx.rng = &rng;
  const actyp::sched::SchedulingPolicy* p = policy->get();
  std::unique_ptr<actyp::sched::SchedulingIndex> index;
  if (p->indexed()) {
    index = std::make_unique<actyp::sched::SchedulingIndex>(p, 0, 1);
    index->Rebuild(cache);
  }
  std::size_t sink = 0;
  const auto [per_call, calls] = TimePerCall(
      [&] {
        const auto sel = index ? index->Select(cache, ctx)
                               : p->Select(cache, ctx);
        sink += sel.index;
      },
      64, budget_s);
  Keep(sink + calls);
  return per_call * 1e9;
}

// A query message as the query manager forwards it to a pool manager:
// the pipeline's routing and scheduling-hint headers over a generated
// query body.
actyp::net::Message PipelineQuery(const ScenarioConfig& c) {
  actyp::workload::QuerySpec spec;
  spec.cluster_count = std::max<std::size_t>(1, c.clusters);
  actyp::workload::QueryGenerator generator(spec);
  actyp::Rng rng(c.seed ^ 0xc0dec0deULL);
  auto query = actyp::query::Parser::ParseBasic(generator.Next(rng));
  if (!query.ok()) throw std::runtime_error("generated query did not parse");
  namespace phdr = actyp::pipeline::phdr;
  actyp::net::Message m = actyp::pipeline::MakeQueryMessage(
      *query, "qm0", "client0", (std::uint64_t{1} << 32) | 1);
  m.SetHeader(phdr::kFragment, "0/1");
  m.SetHeader(actyp::net::hdr::kPoolName, query->PoolName());
  m.SetHeader(phdr::kSchedHints, "1");
  m.SetHeader(phdr::kTtl, "4");
  m.SetHeader(phdr::kAccessGroup, "ece");
  return m;
}

// Encode + Decode round trip: host ns and heap allocations per trip.
std::pair<double, double> CodecCost(const ScenarioConfig& c, double budget_s) {
  const actyp::net::Message message = PipelineQuery(c);
  std::size_t sink = 0;
  const std::uint64_t allocs0 = AllocationCount();
  const auto [per_call, calls] = TimePerCall(
      [&] {
        const std::string wire = message.Encode();
        auto back = actyp::net::Message::Decode(wire);
        if (!back.ok() || back->headers.size() != message.headers.size()) {
          throw std::runtime_error("codec round trip lost headers");
        }
        sink += back->body.size();
      },
      256, budget_s);
  const double allocs = static_cast<double>(AllocationCount() - allocs0) /
                        static_cast<double>(calls);
  if (sink == 0) throw std::runtime_error("codec round trip lost the body");
  return {per_call * 1e9, allocs};
}

double ParseNs(const ScenarioConfig& c, double budget_s) {
  actyp::workload::QuerySpec spec;
  spec.cluster_count = std::max<std::size_t>(1, c.clusters);
  actyp::workload::QueryGenerator generator(spec);
  actyp::Rng rng(c.seed ^ 0x9a45eULL);
  std::vector<std::string> queries;
  for (int i = 0; i < 256; ++i) queries.push_back(generator.Next(rng));
  std::size_t next = 0;
  std::size_t sink = 0;
  const auto [per_call, calls] = TimePerCall(
      [&] {
        auto parsed = actyp::query::Parser::Parse(queries[next]);
        if (!parsed.ok()) throw std::runtime_error("generated query rejected");
        sink += parsed->alternatives().size();
        next = (next + 1) % queries.size();
      },
      256, budget_s);
  Keep(sink + calls);
  return per_call * 1e9;
}

// ResourceDatabase::ForEach over a fleet of the workload's size (the
// scan the machine-churn crash hook makes on every crash).
double ForEachMs(const ScenarioConfig& c, double budget_s) {
  actyp::db::ResourceDatabase database;
  actyp::workload::FleetSpec fleet;
  fleet.machine_count = c.machines;
  fleet.cluster_count = std::max<std::size_t>(1, c.clusters);
  actyp::Rng rng(c.seed);
  actyp::workload::BuildFleet(fleet, rng, &database, nullptr);
  std::vector<double> ms;
  const auto t_start = Clock::now();
  while (ms.size() < 5 || Since(t_start) < budget_s) {
    std::size_t up = 0;
    const auto t0 = Clock::now();
    database.ForEach([&up](const actyp::db::MachineRecord& rec) {
      if (rec.state == actyp::db::MachineState::kUp) ++up;
    });
    ms.push_back(Since(t0) * 1e3);
    if (up != c.machines) throw std::runtime_error("fleet lost machines");
  }
  return Median(ms);
}

// One differential variant: a change to the workload's deployment whose
// host-time difference from the base run is a layer's cost.
struct Variant {
  const char* name;
  std::function<void(ScenarioConfig&)> apply;
};

// Everything one traced window yields. The base run's first window
// reports all of it; the differential repetitions use the host times
// and the fingerprint.
struct WindowResult {
  std::string build;        // host time, allocations, RSS growth
  std::string deployment;
  std::string window;       // host / CPU time, allocations, events
  std::string modeled;      // ModeledJson of the window
  std::string pool;         // selection, refresh and replica work
  std::string stages;       // profiler per-stage p50
  std::string fingerprint;  // modeled outcome; compared for determinism
  double host_s = 0;
  double cpu_s = 0;
};

// Fresh build, warmup, and a window advanced in `chunks` pieces, each
// step a span.
WindowResult RunWindow(const ScenarioConfig& config, SimTime warmup,
                       SimDuration window, int chunks, SpanLog* log) {
  WindowResult result;
  std::unique_ptr<SimScenario> s;
  {
    Scope span(log, "build");
    const long rss0 = CurrentRssKb();
    const std::uint64_t allocs0 = AllocationCount();
    const auto t0 = Clock::now();
    s = std::make_unique<SimScenario>(config);
    const double host_s = Since(t0);
    Json build;
    build.Num("host_s", host_s)
        .Int("allocs", AllocationCount() - allocs0)
        .Num("rss_kb", static_cast<double>(CurrentRssKb() - rss0))
        .Int("machines", config.machines);
    result.build = build.str();
  }
  result.deployment = DeploymentJson(*s);
  {
    Scope span(log, "warmup");
    s->RunUntil(warmup);
    s->ResetMeasurement();
  }
  const ClientTally start = Tally(*s);
  const auto pool0 = s->TotalPoolStats();
  const std::uint64_t sync0 = s->replica_stats().sync_bytes;
  const std::uint64_t events0 = s->total_events();
  {
    Scope span(log, "window");
    const std::uint64_t allocs0 = AllocationCount();
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    for (int k = 1; k <= chunks; ++k) {
      Scope chunk(log, "chunk");
      s->RunUntil(warmup + window * k / chunks);
    }
    result.host_s = Since(t0);
    result.cpu_s = CpuSeconds() - cpu0;
    Json w;
    w.Num("host_s", result.host_s)
        .Num("cpu_s", result.cpu_s)
        .Int("allocs", AllocationCount() - allocs0)
        .Int("events", s->total_events() - events0);
    result.window = w.str();
  }
  {
    Scope span(log, "harvest");
    result.modeled =
        ModeledJson(*s, start, pool0, actyp::ToSeconds(window));
    const auto pool = s->TotalPoolStats();
    Json p;
    p.Int("examined", pool.entries_examined - pool0.entries_examined)
        .Int("allocations", pool.allocations - pool0.allocations)
        .Int("refreshed", pool.entries_refreshed - pool0.entries_refreshed)
        .Int("refresh_ticks", pool.refresh_ticks - pool0.refresh_ticks)
        .Int("sync_bytes", s->replica_stats().sync_bytes - sync0);
    result.pool = p.str();
    Json stages;
    if (const auto* profiler = s->profiler()) {
      using actyp::profile::Stage;
      for (const Stage stage :
           {Stage::kQmAdmit, Stage::kPmDelegate, Stage::kPoolSelect,
            Stage::kReintegrate, Stage::kReply}) {
        const auto summary = profiler->Summary(stage);
        Json st;
        st.Int("count", summary.count).Num("p50_s", summary.p50_s);
        stages.Raw(std::string(actyp::profile::StageName(stage)).c_str(),
                   st.str());
      }
    }
    result.stages = stages.str();
    auto& collector = s->collector();
    Json f;
    f.Int("completed", collector.completed())
        .Int("failed", collector.failures())
        .Num("mean_s", collector.response_stats().mean())
        .Num("p50_s", collector.QuantileSeconds(0.50))
        .Num("p99_s", collector.QuantileSeconds(0.99))
        .Int("events", s->total_events() - events0)
        .Int("pool_allocations", pool.allocations - pool0.allocations);
    result.fingerprint = f.str();
  }
  {
    Scope span(log, "teardown");
    s.reset();
  }
  return result;
}

// The isolated layer calls, each timed over kLayerBudgetS of host time.
std::string IsolatedLayers(const ScenarioConfig& base, SpanLog* log) {
  Json layers;
  {
    Scope span(log, "layer.sched.select");
    layers.Num("select_ns", SelectNs(base, kLayerBudgetS));
  }
  {
    Scope span(log, "layer.net.codec");
    const auto [ns, allocs] = CodecCost(base, kLayerBudgetS);
    layers.Num("codec_ns", ns).Num("codec_allocs", allocs);
  }
  {
    Scope span(log, "layer.query.parse");
    layers.Num("parse_ns", ParseNs(base, kLayerBudgetS));
  }
  {
    Scope span(log, "layer.db.foreach");
    layers.Num("foreach_ms", ForEachMs(base, kLayerBudgetS));
  }
  return layers.str();
}

// The differential runs, interleaved so drift hits every variant alike.
std::string Differentials(const ScenarioConfig& base, SimTime warmup,
                          SimDuration window, int chunks, SpanLog* log) {
  const std::vector<Variant> variants = {
      {"base", [](ScenarioConfig&) {}},
      {"no_profile", [](ScenarioConfig& c) { c.profile = false; }},
      {"flight", [](ScenarioConfig& c) { c.flight_recorder = true; }},
      {"no_churn", [](ScenarioConfig& c) { c.fault_plan = {}; }},
      {"one_replica", [](ScenarioConfig& c) { c.directory_replicas = 1; }},
      {"lp_jobs", [](ScenarioConfig& c) { c.cell_jobs = kLpJobs; }},
  };
  std::vector<std::vector<WindowResult>> results(variants.size());
  for (std::size_t rep = 0; rep < kTraceReps; ++rep) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      Scope span(log, std::string("diff.") + variants[v].name);
      ScenarioConfig variant = base;
      variants[v].apply(variant);
      results[v].push_back(
          RunWindow(variant, warmup, window, chunks, log));
    }
  }
  Json diffs;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<double> host_s, cpu_s;
    std::string prints = "[";
    for (const WindowResult& r : results[v]) {
      host_s.push_back(r.host_s);
      cpu_s.push_back(r.cpu_s);
      prints += (prints.size() > 1 ? "," : "") + r.fingerprint;
    }
    Json d;
    d.Nums("host_s", host_s).Nums("cpu_s", cpu_s).Raw("fingerprints",
                                                      prints + "]");
    diffs.Raw(variants[v].name, d.str());
  }
  return diffs.str();
}

}  // namespace

std::string RunTraced(const Config& config) {
  const ScenarioConfig base = ToScenario(config);
  const SimTime warmup = actyp::Seconds(Require(config, "warmup_s"));
  const SimDuration window = actyp::Seconds(Require(config, "window_s"));
  const auto chunks = static_cast<int>(Require(config, "chunks"));
  if (chunks < 1) throw std::runtime_error("chunks must be at least 1");
  const std::string span_out = config.GetOr("span_out", "");
  if (span_out.empty()) throw std::runtime_error("config key missing: span_out");

  SpanLog log;
  Json out;
  out.Str("mode", "trace");
  {
    Scope root(&log, "traced_run");
    // The instrumented run comes first, so its build's RSS growth is the
    // deployment's own.
    WindowResult first;
    {
      Scope span(&log, "instrumented");
      first = RunWindow(base, warmup, window, chunks, &log);
    }
    out.Raw("build", first.build)
        .Raw("deployment", first.deployment)
        .Raw("window", first.window)
        .Raw("modeled", first.modeled)
        .Raw("pool", first.pool)
        .Raw("stages", first.stages)
        .Raw("layers", IsolatedLayers(base, &log))
        .Raw("variants", Differentials(base, warmup, window, chunks, &log));
  }

  if (!log.Write(span_out)) {
    throw std::runtime_error("cannot write span file " + span_out);
  }
  Json spans;
  spans.Str("file", span_out).Int("count", log.spans().size());
  out.Raw("spans", spans.str());
  return out.str();
}

}  // namespace perfbench
