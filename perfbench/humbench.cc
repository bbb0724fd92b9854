// humbench: one hummed query sent to an in-process humdexd over loopback
// TCP and one ranked answer back, measured end to end and layer by layer.
//
//   humbench --workload knn_small|knn_large|range_rw --seed N --seconds S
//            --trace 0|1 --data DIR [--trace_dir DIR]
//
// Every input (corpus, hums, request stream, arrival times, insert pool)
// derives from --seed. Set-up builds (or, for range_rw, opens) a
// serve::ShardedEngine and starts a serve::HumdexServer on an ephemeral
// port; the load then drives hums to it with the serve/protocol frames for
// --seconds. Every answer is checked afterwards against an unsharded
// QbhSystem built from the same rows. Durability (inserts, checkpoints,
// snapshot ships, bytes on disk) is measured on every workload: during the
// load on range_rw, and after it on a durable copy of the corpus on the kNN
// workloads.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same load,
// then replays the same request stream one request at a time, timing each
// layer through its public entry points, and prints the per-layer metrics.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero on any failed operation or answer
// mismatch. perfbench/README.md lists the workloads and metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lib/benchlib.h"
#include "music/hummer.h"
#include "music/pitch_tracker.h"
#include "music/song_generator.h"
#include "qbh/qbh_system.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/sharded_engine.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using humdex::HummerProfile;
using humdex::Melody;
using humdex::QbhMatch;
using humdex::QbhSystem;
using humdex::QueryOptions;
using humdex::QueryStats;
using humdex::Series;
using humdex::serve::HumdexServer;
using humdex::serve::Request;
using humdex::serve::Response;
using humdex::serve::ShardedEngine;
using humdex::serve::ShardedOptions;

constexpr std::size_t kShards = 4;
constexpr std::size_t kHumPool = 1024;       // distinct hums per run
constexpr std::size_t kStreamLength = 1 << 16;
// Set-ups, ships and checkpoints are timed repeatedly and reported as
// medians: at least a minimum count of times, and more (up to kMaxRepeats)
// until a time budget (kMinRepeatSeconds unless stated) has passed, since
// the cheap ones are the noisiest.
constexpr std::size_t kMaxRepeats = 200;
constexpr double kMinRepeatSeconds = 2.0;
constexpr std::size_t kSetupMinRepeats = 5;
constexpr std::size_t kMinShips = 16;
// The kNN workloads' storage epilogue: kEpilogueRounds rounds, each of
// kEpilogueInserts / kEpilogueRounds inserts at kEpilogueInsertRate, then
// kEpilogueCheckpoints checkpoints, then one ship per shard. Interleaved
// rounds spread each kind of sample over the whole epilogue (about 9 s),
// so a few seconds of a neighbour's disk traffic move every median a little
// rather than one of them a lot. Counts, not time budgets, fix how much is
// written.
constexpr std::size_t kEpilogueRounds = 12;
constexpr std::size_t kEpilogueInserts = 1200;  // >= 1000: insert p99 rule
constexpr double kEpilogueInsertRate = 150.0;
constexpr std::size_t kEpilogueCheckpoints = 3;  // per round
constexpr int kRangeCheckpoints = 7;  // during the range_rw load
constexpr double kReplaySeconds = 10.0;  // traced replay, at most
constexpr std::size_t kBareBlock = 32;    // see Replay
constexpr double kWarmUpSeconds = 1.0;

/// One workload, fixed here and never derived from a measurement.
struct Workload {
  const char* name;
  std::size_t corpus;
  std::size_t replication;
  bool durable;            // served from v3 checkpoints + WAL (range_rw)
  bool range;              // `range` verb instead of `query`
  std::size_t connections;
  double open_loop_rate;   // Poisson arrivals per second; 0 = closed loop
  double poor_share;       // share of hums from the Poor singer profile
  std::size_t top_k;
  double epsilon;
  std::uint64_t deadline_ms;
  double insert_rate;      // writer inserts per second during the load
};

// knn_small: one user on an idle server; the 500-phrase corpus fits in
// per-core L2, so protocol, dispatch and fan-out dominate.
// knn_large: open-loop arrivals at about a quarter of the seed program's
// closed-loop capacity on a shared 4-vCPU host (about 175 q/s over 4
// connections at top-10). At half of it, neighbours' load, which at times
// takes half the cores, saturated the queue and moved p50 twofold between
// runs. The 16k-phrase arena exceeds L2, so the cascade and the shard
// fan-out dominate; queueing shows in the tail.
// range_rw: range answers (about 25-50 matches at the median) against a
// durable R=2 corpus while a writer inserts with WAL fsync and checkpoints
// run; storage changes show here and not on the kNN workloads.
constexpr Workload kWorkloads[] = {
    {"knn_small", 500, 1, false, false, 1, 0.0, 0.0, 10, 0.0, 250, 0.0},
    {"knn_large", 16000, 1, false, false, 4, 45.0, 0.5, 10, 0.0, 250, 0.0},
    {"range_rw", 8000, 2, true, true, 3, 0.0, 0.0, 0, 28.0, 0, 50.0},
};

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t ToNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// num / den, with a zero denominator read as one (no events, no ratio).
double Ratio(double num, double den) { return num / std::max(den, 1.0); }

std::vector<double> Scaled(const std::vector<double>& values, double k) {
  std::vector<double> out;
  for (double v : values) out.push_back(v * k);
  return out;
}

/// Whether a repeated measurement begun at `start` goes on after `done`
/// repetitions (see kMinRepeatSeconds).
bool Again(std::size_t done, std::size_t min_count, double start,
           double seconds = kMinRepeatSeconds) {
  return done < min_count ||
         (done < kMaxRepeats && NowSeconds() - start < seconds);
}

/// Sleep until `t` on the NowSeconds clock.
void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

// --- Inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<Melody> corpus;
  std::vector<Melody> insert_pool;
  std::vector<Request> requests;       // one per distinct hum
  std::vector<std::uint32_t> stream;   // request i sends requests[stream[i]]
  std::vector<double> arrivals;        // open loop only
};

Inputs MakeInputs(const Workload& w, std::uint64_t seed, double seconds) {
  Inputs in;
  humdex::SongGenerator corpus_gen(Mix(seed, 1));
  in.corpus = corpus_gen.GeneratePhrases(w.corpus);

  const std::size_t pool =
      w.insert_rate > 0
          ? static_cast<std::size_t>(std::ceil(w.insert_rate * seconds)) + 16
          : kEpilogueInserts;
  humdex::SongGenerator insert_gen(Mix(seed, 2));
  in.insert_pool = insert_gen.GeneratePhrases(pool);
  for (std::size_t i = 0; i < in.insert_pool.size(); ++i) {
    in.insert_pool[i].name = "insert_" + std::to_string(i);
  }

  // Hums go through the pitch tracker, dropouts included. The wire format
  // carries finite numbers only (a silent frame is NaN, which ParseRequest
  // refuses), so the client drops silent frames before sending, as any
  // humdexd client must; the server's RemoveSilence then finds none.
  humdex::Rng rng(Mix(seed, 3));
  humdex::PitchTracker tracker(humdex::PitchTrackerOptions(), Mix(seed, 4));
  const std::size_t poor = static_cast<std::size_t>(
      std::lround(w.poor_share * static_cast<double>(kHumPool)));
  for (std::size_t h = 0; h < kHumPool; ++h) {
    const bool is_poor = h < poor;
    humdex::Hummer hummer(
        is_poor ? HummerProfile::Poor() : HummerProfile::Good(),
        Mix(seed, 1000 + h));
    Request req;
    req.kind = w.range ? Request::Kind::kRange : Request::Kind::kQuery;
    req.top_k = w.top_k;
    req.epsilon = w.epsilon;
    req.deadline_ms = w.deadline_ms;
    do {
      const Melody& target = in.corpus[rng.NextBounded(
          static_cast<std::uint32_t>(in.corpus.size()))];
      req.pitch = humdex::RemoveSilence(tracker.Track(hummer.Hum(target)));
    } while (req.pitch.empty());
    in.requests.push_back(std::move(req));
  }
  in.stream.resize(kStreamLength);
  for (std::uint32_t& s : in.stream) {
    s = rng.NextBounded(static_cast<std::uint32_t>(kHumPool));
  }
  if (w.open_loop_rate > 0) {
    in.arrivals = PoissonArrivals(w.open_loop_rate, seconds, Mix(seed, 5));
  }
  return in;
}

ShardedOptions EngineOptions(const Workload& w) {
  ShardedOptions o;
  o.num_shards = kShards;
  o.replication = w.replication;
  o.qbh.format = humdex::CheckpointFormat::kV3Binary;
  return o;
}

// --- Results ----------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) Error(name + " is not a finite number");
    metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
  }
  void Attempt(std::size_t n, std::size_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  void Mismatch(const std::string& what) {
    ++mismatches_;
    if (mismatches_ <= 5) {
      std::fprintf(stderr, "answer mismatch: %s\n", what.c_str());
    }
  }
  void Error(const std::string& what) {
    ++errors_;
    std::fprintf(stderr, "error: %s\n", what.c_str());
  }
  std::size_t failed() const { return failed_ + mismatches_; }
  std::size_t attempted() const { return attempted_; }
  bool correct() const { return errors_ == 0 && failed() == 0; }

  void Print() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("%-32s %16.6f %s\n", name.c_str(), m.value, m.unit);
    }
    std::string json = "{\"correct\": " +
                       std::string(correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed()) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t mismatches_ = 0;
  std::size_t errors_ = 0;
};

/// p99 by the windowed tail rule (WindowedTail). With too few samples the
/// run fails instead of printing a false figure.
double P99OrThrow(const std::vector<double>& values, const char* what) {
  const std::optional<double> p = WindowedTail(values, 99.0);
  if (!p) {
    throw std::runtime_error(std::string("too few samples for ") + what +
                             " p99: " + std::to_string(values.size()));
  }
  return *p;
}

// --- Set-up -----------------------------------------------------------------

struct Serving {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<HumdexServer> server;
};

/// Write the range_rw directory in a child process (Create + AttachAll), so
/// none of its memory is in this process when set-up RSS is measured.
void PrepareDurableDir(const Workload& w, const std::vector<Melody>& corpus,
                       const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    auto created = ShardedEngine::Create(corpus, EngineOptions(w));
    const bool ok = created.ok() && created.value()->AttachAll(dir).ok();
    std::_Exit(ok ? 0 : 1);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("preparing " + dir + " failed");
  }
}

/// Construct the engine (Create from the corpus, or Open of the durable
/// directory `dir`) and start a server on it; `*seconds` is how long both
/// took.
Serving StartServing(const Workload& w, const Inputs& in,
                     const std::string& dir, double* seconds) {
  std::vector<Melody> rows = w.durable ? std::vector<Melody>() : in.corpus;
  const double t0 = NowSeconds();
  auto engine = w.durable ? ShardedEngine::Open(dir, EngineOptions(w))
                          : ShardedEngine::Create(std::move(rows),
                                                  EngineOptions(w));
  if (!engine.ok()) {
    throw std::runtime_error("set-up: " + engine.status().ToString());
  }
  Serving s;
  s.engine = std::move(engine).value();
  s.server = std::make_unique<HumdexServer>(s.engine.get(),
                                            humdex::serve::ServerOptions());
  const humdex::Status st = s.server->Start();
  if (!st.ok()) throw std::runtime_error("server: " + st.ToString());
  *seconds = NowSeconds() - t0;
  return s;
}

/// Set up and tear down again and again (see kSetupMinRepeats), appending
/// each set-up time to `times`. This runs after the load: in the seconds
/// after a process started, a shared 4-vCPU VM at times ran set-up at half
/// speed for several seconds, which moved a median taken then by a third
/// from run to run. On range_rw `dir` is an untouched copy of the prepared
/// directory, as the served one has taken the load's writes.
void RepeatSetUp(const Workload& w, const Inputs& in, const std::string& dir,
                 std::vector<double>* times) {
  const double start = NowSeconds();
  for (std::size_t r = 0; Again(r, kSetupMinRepeats, start); ++r) {
    double seconds = 0.0;
    StartServing(w, in, dir, &seconds);
    times->push_back(seconds);
  }
}

// --- The wire ----------------------------------------------------------------

/// One request over a connection: encode, send, receive, parse. Succeeds
/// only for a complete answer (ok, not partial, truncated or rejected).
bool RoundTrip(WireClient& client, const Request& req, Response* resp) {
  const std::string frame =
      humdex::serve::EncodeFrame(humdex::serve::EncodeRequest(req));
  std::string payload;
  std::size_t response_bytes = 0;
  if (!client.Send(frame) || !client.Receive(&payload, &response_bytes)) {
    return false;
  }
  if (!humdex::serve::ParseResponse(payload, resp).ok()) return false;
  return resp->ok && !resp->partial && !resp->truncated &&
         resp->shards_failed == 0;
}

/// The `metrics` page, fetched over the wire like any client would.
std::string ScrapeText(int port) {
  WireClient client;
  Request req;
  req.kind = Request::Kind::kMetrics;
  Response resp;
  if (!client.Connect(port) || !RoundTrip(client, req, &resp)) {
    throw std::runtime_error("metrics: no page from the server");
  }
  return resp.text;
}

MetricsPage ParsePage(const std::string& text) {
  auto page = MetricsPage::Parse(text);
  if (!page.ok()) throw std::runtime_error(page.status().ToString());
  return std::move(page).value();
}

// --- Load -------------------------------------------------------------------

struct Answer {
  std::size_t request = 0;  // index into the stream
  bool ok = false;
  std::vector<QbhMatch> matches;
};

struct LoadResult {
  std::vector<CallTiming> timings;
  std::vector<Answer> answers;
  double wall_s = 0.0;
};

using Clients = std::vector<std::unique_ptr<WireClient>>;

/// The load's connections, after an untimed warm-up on them: the first
/// queries after set-up run several times slower than the rest (lazily built
/// state, cold caches), which no user pays twice; an open loop would queue
/// behind them for a second. The traced run's `before` scrape follows the
/// warm-up, so registry deltas cover the timed load alone.
Clients ConnectAndWarmUp(const Workload& w, const Inputs& in, int port) {
  Clients clients;
  for (std::size_t c = 0; c < w.connections; ++c) {
    clients.push_back(std::make_unique<WireClient>());
    if (!clients.back()->Connect(port)) throw std::runtime_error("connect");
  }
  const std::vector<CallTiming> warm = RunClosedLoop(
      kWarmUpSeconds, w.connections, [&](std::size_t conn, std::size_t i) {
        const Request& req = in.requests[in.stream[i % in.stream.size()]];
        Response resp;
        return RoundTrip(*clients[conn], req, &resp);
      });
  for (const CallTiming& t : warm) {
    if (!t.ok) throw std::runtime_error("warm-up request failed");
  }
  return clients;
}

LoadResult DriveQueries(const Workload& w, const Inputs& in, Clients clients,
                        double seconds) {
  std::vector<std::vector<Answer>> per_conn(w.connections);
  const Call call = [&](std::size_t conn, std::size_t i) {
    const Request& req = in.requests[in.stream[i % in.stream.size()]];
    Response resp;
    const bool ok = RoundTrip(*clients[conn], req, &resp);
    per_conn[conn].push_back(Answer{i, ok, std::move(resp.matches)});
    return ok;
  };
  LoadResult out;
  const double t0 = NowSeconds();
  out.timings = w.open_loop_rate > 0
                    ? RunOpenLoop(in.arrivals, w.connections, call)
                    : RunClosedLoop(seconds, w.connections, call);
  out.wall_s = NowSeconds() - t0;
  for (auto& v : per_conn) {
    for (Answer& a : v) out.answers.push_back(std::move(a));
  }
  std::sort(out.answers.begin(), out.answers.end(),
            [](const Answer& a, const Answer& b) {
              return a.request < b.request;
            });
  return out;
}

struct Inserted {
  std::int64_t id;
  Melody melody;
};

struct StorageResult {
  std::vector<double> insert_s;
  std::vector<Inserted> inserted;
  std::vector<double> checkpoint_s;
  std::vector<double> ship_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Insert `pool[first + j]` at due time j / rate until `count` inserts are
/// done, `seconds` pass or the pool runs out.
void WriteLoop(ShardedEngine* engine, const std::vector<Melody>& pool,
               std::size_t first, std::size_t count, double rate,
               double seconds, StorageResult* out) {
  const double t0 = NowSeconds();
  for (std::size_t j = first; j < pool.size() && j - first < count; ++j) {
    const double due = static_cast<double>(j - first) / rate;
    if (due >= seconds) break;
    SleepUntil(t0 + due);
    const double s = NowSeconds();
    auto id = engine->Insert(pool[j]);
    out->insert_s.push_back(NowSeconds() - s);
    ++out->attempted;
    if (id.ok()) {
      out->inserted.push_back(Inserted{id.value(), pool[j]});
    } else {
      ++out->failed;
      std::fprintf(stderr, "insert failed: %s\n",
                   id.status().ToString().c_str());
    }
  }
}

/// The checkpoint after all writes, which disk bytes are measured against.
void FinalCheckpoint(ShardedEngine* engine, StorageResult* out) {
  ++out->attempted;
  if (!engine->CheckpointAll().ok()) ++out->failed;
}

void TimedCheckpoint(ShardedEngine* engine, StorageResult* out) {
  const double s = NowSeconds();
  const humdex::Status st = engine->CheckpointAll();
  out->checkpoint_s.push_back(NowSeconds() - s);
  ++out->attempted;
  if (!st.ok()) {
    ++out->failed;
    std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
  }
}

/// Quarantine replica 1 of a shard and rebuild it by snapshot shipping from
/// replica 0, timing each ship; shard after shard (continuing the rotation
/// from earlier calls), at least `min_count` times and for `seconds`.
void ShipAll(ShardedEngine* engine, std::size_t min_count, double seconds,
             StorageResult* out) {
  const double start = NowSeconds();
  for (std::size_t k = 0; Again(k, min_count, start, seconds); ++k) {
    const std::size_t s = out->ship_s.size() % engine->num_shards();
    engine->QuarantineReplica(s, 1);
    const double t0 = NowSeconds();
    const humdex::Status st = engine->ShipSnapshot(s, 0, 1);
    out->ship_s.push_back(NowSeconds() - t0);
    ++out->attempted;
    if (!st.ok()) {
      ++out->failed;
      std::fprintf(stderr, "ship failed: %s\n", st.ToString().c_str());
    }
  }
}

double DiskBytesPerMelody(ShardedEngine* engine, const std::string& dir) {
  return static_cast<double>(DirectoryBytes(dir)) /
         static_cast<double>(engine->size() * engine->replication());
}

void ReportStorage(const StorageResult& st, double disk_bytes_per_melody,
                   Report* report) {
  report->Set("insert_p50_ms", Median(Scaled(st.insert_s, 1e3)), "ms");
  report->Set("checkpoint_s", Median(st.checkpoint_s), "s");
  report->Set("ship_s", Median(st.ship_s), "s");
  report->Set("disk_bytes_per_melody", disk_bytes_per_melody, "bytes");
  report->Attempt(st.attempted, st.failed);
}

/// The kNN workloads serve from memory at R=1; their storage metrics come
/// from a durable R=2 copy of the same corpus after the query load, with no
/// readers: rounds of inserts at a fixed rate, checkpoints, and ships (see
/// kEpilogueRounds).
StorageResult StorageEpilogue(const Workload& w, const Inputs& in,
                              const std::string& dir,
                              double* bytes_per_melody) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Workload durable = w;
  durable.replication = 2;
  auto created = ShardedEngine::Create(in.corpus, EngineOptions(durable));
  if (!created.ok()) throw std::runtime_error(created.status().ToString());
  std::unique_ptr<ShardedEngine> engine = std::move(created).value();
  const humdex::Status st = engine->AttachAll(dir);
  if (!st.ok()) throw std::runtime_error("attach: " + st.ToString());
  ::sync();  // AttachAll's writeback stays out of the first WAL fsyncs
  StorageResult out;
  const std::size_t per_round = kEpilogueInserts / kEpilogueRounds;
  for (std::size_t r = 0; r < kEpilogueRounds; ++r) {
    WriteLoop(engine.get(), in.insert_pool, r * per_round, per_round,
              kEpilogueInsertRate, per_round / kEpilogueInsertRate, &out);
    for (std::size_t c = 0; c < kEpilogueCheckpoints; ++c) {
      TimedCheckpoint(engine.get(), &out);
    }
    ShipAll(engine.get(), engine->num_shards(), 0.0, &out);
  }
  FinalCheckpoint(engine.get(), &out);
  *bytes_per_melody = DiskBytesPerMelody(engine.get(), dir);
  engine.reset();
  std::filesystem::remove_all(dir);
  return out;
}

// --- Oracle -----------------------------------------------------------------

/// The unsharded reference: the base corpus built in id order, then every
/// insert applied in id order, exactly as the sharded engine saw them.
std::unique_ptr<QbhSystem> BuildReference(
    const Workload& w, const Inputs& in,
    const std::vector<Inserted>& inserted) {
  auto ref = std::make_unique<QbhSystem>(EngineOptions(w).qbh);
  for (const Melody& m : in.corpus) ref->AddMelody(m);
  ref->Build();
  for (const Inserted& ins : inserted) {
    auto id = ref->Insert(ins.melody);
    if (!id.ok() || id.value() != ins.id) {
      throw std::runtime_error("reference could not mirror insert id " +
                               std::to_string(ins.id));
    }
  }
  return ref;
}

void CheckAnswers(const Workload& w, const Inputs& in, const QbhSystem& ref,
                  const std::vector<Answer>& answers, Report* report) {
  // The reference answers each distinct hum that was sent once.
  std::vector<std::size_t> sent;
  std::vector<bool> seen(in.requests.size(), false);
  for (const Answer& a : answers) {
    const std::size_t h = in.stream[a.request % in.stream.size()];
    if (!seen[h]) sent.push_back(h);
    seen[h] = true;
  }
  std::vector<std::vector<QbhMatch>> want(in.requests.size());
  humdex::ThreadPool pool(humdex::ThreadPool::DefaultThreadCount());
  humdex::ParallelFor(pool, sent.size(), [&](std::size_t j) {
    const std::size_t h = sent[j];
    const Request& req = in.requests[h];
    want[h] = w.range ? ref.RangeQuery(req.pitch, req.epsilon)
                      : ref.Query(req.pitch, req.top_k);
  });
  const auto base_ids = static_cast<std::int64_t>(in.corpus.size());
  for (const Answer& a : answers) {
    if (!a.ok) continue;  // already counted as a failed request
    const std::size_t h = in.stream[a.request % in.stream.size()];
    const std::string diff =
        w.range ? CheckRangeAnswer(a.matches, want[h], base_ids)
                : CompareExact(a.matches, want[h]);
    if (!diff.empty()) {
      report->Mismatch("request " + std::to_string(a.request) + ": " + diff);
    }
  }
}

// --- Traced replay ----------------------------------------------------------

struct Trace {
  SpanLog log;
  struct Samples {
    const char* unit;
    std::vector<double> values;  // one per request; reported as the median
  };
  std::map<std::string, Samples> per_request;
  std::vector<double> request_ms;  // the whole client-side request
  std::vector<double> bare_ms;     // the same, replayed without the steps
  QueryStats cascade_total;
  std::size_t shard_dtw = 0;
  std::size_t unsharded_dtw = 0;
};

std::int64_t SinceNs(double t0) { return ToNs(NowSeconds() - t0); }

/// Build the per-shard systems the traced run times one by one: the g % N
/// partition of the engine's rows, local id g / N, inserts applied in order.
std::vector<std::unique_ptr<QbhSystem>> BuildShards(
    const Workload& w, const Inputs& in,
    const std::vector<Inserted>& inserted) {
  std::vector<std::unique_ptr<QbhSystem>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<QbhSystem>(EngineOptions(w).qbh));
  }
  for (std::size_t g = 0; g < in.corpus.size(); ++g) {
    shards[g % kShards]->AddMelody(in.corpus[g]);
  }
  for (auto& s : shards) s->Build();
  for (const Inserted& ins : inserted) {
    QbhSystem& shard = *shards[static_cast<std::size_t>(ins.id) % kShards];
    auto id = shard.Insert(ins.melody);
    if (!id.ok() || id.value() != ins.id / static_cast<std::int64_t>(kShards)) {
      throw std::runtime_error("shard could not mirror insert id " +
                               std::to_string(ins.id));
    }
  }
  return shards;
}

/// Replay the request stream one request at a time for up to `seconds` (and
/// no further than `max_requests`). Client steps are spans nested in real
/// time, and the wire's self time comes from interval subtraction. The
/// server-side steps are replayed through the public entry points right
/// after; as they are not nested in time inside the client's round trip,
/// they are laid out on their parent's timeline (sequential steps back to
/// back from the parent's start, the shards side by side, as the engine runs
/// them in parallel), and the dispatch and fan-out self times are the signed
/// differences of those separately timed runs, so their medians are not
/// biased towards zero where the children take as long as the parent.
///
/// Each block of kBareBlock requests is first sent bare, round trips only,
/// and then traced: the traced requests' client time against the bare ones'
/// is what the extra steps between requests (re-executions, the per-shard
/// systems, span recording) cost a request.
Trace Replay(const Workload& w, const Inputs& in, const Serving& serving,
             const QbhSystem& ref,
             const std::vector<std::unique_ptr<QbhSystem>>& shards,
             double seconds, std::size_t max_requests) {
  Trace tr;
  WireClient client;
  if (!client.Connect(serving.server->port())) {
    throw std::runtime_error("connect");
  }
  auto note = [&tr](const char* name, const char* unit, double v) {
    Trace::Samples& s = tr.per_request[name];
    s.unit = unit;
    s.values.push_back(v);
  };
  auto us = [&note](const char* name, std::int64_t ns) {
    note(name, "us", static_cast<double>(ns) * 1e-3);
  };
  auto count = [&note](const char* name, std::size_t n) {
    note(name, "count", static_cast<double>(n));
  };
  const double t0 = NowSeconds();
  for (std::size_t i = 0; i < max_requests && NowSeconds() - t0 < seconds;
       ++i) {
    const Request& req = in.requests[in.stream[i % in.stream.size()]];
    const std::uint64_t id = i;
    if (i % kBareBlock == 0) {
      for (std::size_t j = i; j < std::min(i + kBareBlock, max_requests); ++j) {
        const double b0 = NowSeconds();
        Response bare;
        if (!RoundTrip(client, in.requests[in.stream[j % in.stream.size()]],
                       &bare)) {
          throw std::runtime_error("bare round trip failed");
        }
        tr.bare_ms.push_back((NowSeconds() - b0) * 1e3);
      }
    }

    // Client side, over the wire.
    const std::int64_t r0 = SinceNs(t0);
    const std::string payload = humdex::serve::EncodeRequest(req);
    const std::string frame = humdex::serve::EncodeFrame(payload);
    const std::int64_t r1 = SinceNs(t0);
    std::string resp_payload;
    std::size_t resp_bytes = 0;
    if (!client.Send(frame) || !client.Receive(&resp_payload, &resp_bytes)) {
      throw std::runtime_error("traced round trip failed");
    }
    const std::int64_t r2 = SinceNs(t0);
    Response resp;
    if (!humdex::serve::ParseResponse(resp_payload, &resp).ok() || !resp.ok) {
      throw std::runtime_error("traced response failed");
    }
    const std::int64_t r3 = SinceNs(t0);
    const int root = tr.log.Add(id, "request", -1, r0, r3);
    tr.log.Add(id, "protocol.encode_request", root, r0, r1);
    const int wire = tr.log.Add(id, "wire.round_trip", root, r1, r2);
    tr.log.Add(id, "protocol.decode_response", root, r2, r3);

    // Server side, each public entry point timed on its own.
    double s = NowSeconds();
    std::string body;
    std::size_t consumed = 0;
    bool complete = false;
    Request parsed;
    if (!humdex::serve::DecodeFrame(frame, &body, &consumed, &complete).ok() ||
        !complete || !humdex::serve::ParseRequest(body, &parsed).ok()) {
      throw std::runtime_error("traced decode failed");
    }
    const std::int64_t decode_ns = ToNs(NowSeconds() - s);

    s = NowSeconds();
    const std::string handled = serving.server->HandlePayload(payload);
    const std::int64_t handle_ns = ToNs(NowSeconds() - s);

    s = NowSeconds();
    const Series normal = serving.engine->HumToNormalForm(req.pitch);
    const std::int64_t normal_ns = ToNs(NowSeconds() - s);

    QueryOptions qopts;
    if (req.deadline_ms > 0) {
      qopts.deadline = humdex::Deadline::FromNowMillis(req.deadline_ms);
    }
    QueryStats stats;
    s = NowSeconds();
    Response direct;
    direct.ok = true;
    direct.matches = w.range
        ? serving.engine->RangeQuery(req.pitch, req.epsilon, qopts, &stats)
        : serving.engine->Query(req.pitch, req.top_k, qopts, &stats);
    const std::int64_t query_ns = ToNs(NowSeconds() - s);
    direct.partial = stats.partial;
    direct.truncated = stats.truncated || stats.rejected;
    direct.shards_failed = stats.shards_failed;

    std::vector<std::int64_t> shard_ns;
    for (const auto& shard : shards) {
      QueryStats ss;
      s = NowSeconds();
      if (w.range) {
        shard->RangeQueryNormal(normal, req.epsilon, QueryOptions(), &ss);
      } else {
        shard->QueryNormal(normal, req.top_k, QueryOptions(), &ss);
      }
      shard_ns.push_back(ToNs(NowSeconds() - s));
      tr.shard_dtw += ss.exact_dtw_calls;
    }
    QueryStats unsharded;
    if (w.range) {
      ref.RangeQueryNormal(normal, req.epsilon, QueryOptions(), &unsharded);
    } else {
      ref.QueryNormal(normal, req.top_k, QueryOptions(), &unsharded);
    }
    tr.unsharded_dtw += unsharded.exact_dtw_calls;

    s = NowSeconds();
    const std::string encoded = humdex::serve::EncodeResponse(direct);
    const std::int64_t encode_ns = ToNs(NowSeconds() - s);
    if (encoded != handled) {
      throw std::runtime_error("direct answer differs from the server's");
    }

    const std::int64_t h0 = r1;
    const int handle =
        tr.log.Add(id, "server.handle", wire, h0, h0 + handle_ns);
    tr.log.Add(id, "protocol.decode_request", handle, h0, h0 + decode_ns);
    const std::int64_t q0 = h0 + decode_ns;
    const int query = tr.log.Add(id, "engine.query", handle, q0, q0 + query_ns);
    tr.log.Add(id, "protocol.encode_response", handle, q0 + query_ns,
               q0 + query_ns + encode_ns);
    tr.log.Add(id, "engine.normal_form", query, q0, q0 + normal_ns);
    for (std::size_t k = 0; k < shard_ns.size(); ++k) {
      tr.log.Add(id, "shard.query." + std::to_string(k), query, q0 + normal_ns,
                 q0 + normal_ns + shard_ns[k]);
    }

    tr.request_ms.push_back(static_cast<double>(r3 - r0) * 1e-6);
    us("protocol.encode_request_us", r1 - r0);
    us("protocol.decode_response_us", r3 - r2);
    us("protocol.decode_request_us", decode_ns);
    us("protocol.encode_response_us", encode_ns);
    note("protocol.request_bytes", "bytes", static_cast<double>(frame.size()));
    note("protocol.response_bytes", "bytes", static_cast<double>(resp_bytes));
    std::int64_t shard_max = 0, shard_sum = 0;
    for (std::int64_t ns : shard_ns) {
      shard_max = std::max(shard_max, ns);
      shard_sum += ns;
    }
    us("server.handle_us", handle_ns);
    us("server.dispatch_self_us", handle_ns - decode_ns - query_ns - encode_ns);
    us("wire.overhead_us", tr.log.SelfNs(wire));
    us("engine.normal_form_us", normal_ns);
    us("engine.query_us", query_ns);
    us("engine.fanout_overhead_us", query_ns - normal_ns - shard_max);
    us("engine.shard_max_us", shard_max);
    us("engine.shard_sum_us", shard_sum);
    count("cascade.index_candidates", stats.index_candidates);
    count("cascade.kim_pruned", stats.kim_pruned);
    count("cascade.triangle_pruned", stats.triangle_pruned);
    count("cascade.refine_pruned", stats.refine_pruned);
    count("cascade.keogh_pruned", stats.keogh_pruned);
    count("cascade.improved_pruned", stats.improved_pruned);
    count("cascade.exact_dtw_calls", stats.exact_dtw_calls);
    us("cascade.index_us", stats.index_ns);
    us("cascade.lb_us", stats.lb_ns);
    us("cascade.triangle_us", stats.triangle_ns);
    us("cascade.refine_us", stats.refine_ns);
    us("cascade.improved_us", stats.improved_ns);
    us("cascade.dtw_us", stats.dtw_ns);
    count("index.page_accesses", stats.page_accesses);
    tr.cascade_total += stats;
  }
  return tr;
}

// --- Main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string trace_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data") a.data_dir = v;
    else if (k == "--trace_dir") a.trace_dir = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.workload.empty() || a.data_dir.empty() || !(a.seconds > 0)) {
    throw std::runtime_error(
        "usage: humbench --workload W --seed N --seconds S --trace 0|1 "
        "--data DIR [--trace_dir DIR]");
  }
  return a;
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    throw std::runtime_error("unknown workload " + args.workload);
  }
  const std::string dir = args.data_dir + "/" + w->name;
  Report report;

  const Inputs in = MakeInputs(*w, args.seed, args.seconds);
  const std::string setup_dir = dir + ".setup";
  if (w->durable) {
    PrepareDurableDir(*w, in.corpus, dir);
    std::filesystem::remove_all(setup_dir);
    std::filesystem::copy(dir, setup_dir,
                          std::filesystem::copy_options::recursive);
  }
  // Flush what the preparation (and any build before this run) left dirty,
  // so its writeback does not land in the load's WAL fsyncs.
  ::sync();
  // rss_mb is the resident growth across the first set-up, the one served.
  std::vector<double> setup_s(1);
  const std::uint64_t rss0 = ResidentBytes();
  Serving serving = StartServing(*w, in, dir, &setup_s[0]);
  report.Set("rss_mb",
             static_cast<double>(ResidentBytes() - rss0) / (1 << 20), "MB");
  const int port = serving.server->port();

  Clients clients = ConnectAndWarmUp(*w, in, port);
  std::optional<MetricsPage> before;
  if (args.trace) before = ParsePage(ScrapeText(port));

  // The load. On range_rw a writer and a checkpointer run beside the readers.
  StorageResult storage, checkpoints;
  std::thread writer, checkpointer;
  if (w->durable) {
    writer = std::thread([&] {
      WriteLoop(serving.engine.get(), in.insert_pool, 0, in.insert_pool.size(),
                w->insert_rate, args.seconds, &storage);
    });
    checkpointer = std::thread([&] {
      const double t0 = NowSeconds();
      for (int c = 1; c <= kRangeCheckpoints; ++c) {
        SleepUntil(t0 + args.seconds * c / (kRangeCheckpoints + 1));
        TimedCheckpoint(serving.engine.get(), &checkpoints);
      }
    });
  }
  LoadResult load = DriveQueries(*w, in, std::move(clients), args.seconds);
  if (writer.joinable()) writer.join();
  if (checkpointer.joinable()) checkpointer.join();
  storage.checkpoint_s = checkpoints.checkpoint_s;
  storage.attempted += checkpoints.attempted;
  storage.failed += checkpoints.failed;
  std::optional<MetricsPage> after_load;
  if (args.trace) after_load = ParsePage(ScrapeText(port));
  RepeatSetUp(*w, in, setup_dir, &setup_s);
  report.Set("setup_s", Median(setup_s), "s");

  double bytes_per_melody = 0.0;
  if (w->durable) {
    ShipAll(serving.engine.get(), kMinShips, kMinRepeatSeconds, &storage);
    FinalCheckpoint(serving.engine.get(), &storage);
    bytes_per_melody = DiskBytesPerMelody(serving.engine.get(), dir);
  } else {
    storage = StorageEpilogue(*w, in, args.data_dir + "/epilogue",
                              &bytes_per_melody);
  }
  std::string final_page;
  std::optional<MetricsPage> after_storage;
  if (args.trace) {
    final_page = ScrapeText(port);
    after_storage = ParsePage(final_page);
  }

  // End-to-end figures.
  std::vector<double> latency_ms, late_ms, ok_end_s;
  for (const CallTiming& t : load.timings) {
    late_ms.push_back(t.late_s() * 1e3);
    if (!t.ok) continue;
    latency_ms.push_back(t.latency_s() * 1e3);
    ok_end_s.push_back(t.end_s);
  }
  report.Attempt(load.timings.size(), load.timings.size() - ok_end_s.size());
  report.Set("qps", MedianRate(ok_end_s), "1/s");
  report.Set("p50_ms", Median(latency_ms), "ms");
  ReportStorage(storage, bytes_per_melody, &report);

  // Every answer against the unsharded oracle. The inserts of the kNN
  // epilogue went to another engine; only range_rw's reach the answers.
  const std::vector<Inserted> served_inserts =
      w->durable ? storage.inserted : std::vector<Inserted>();
  std::unique_ptr<QbhSystem> ref = BuildReference(*w, in, served_inserts);
  CheckAnswers(*w, in, *ref, load.answers, &report);
  report.Set("ok_frac",
             1.0 - Ratio(static_cast<double>(report.failed()),
                         static_cast<double>(report.attempted())),
             "ratio");

  // Traced run: per-layer figures.
  Report layers;
  if (args.trace) {
    layers.Attempt(report.attempted(), report.failed());
    if (!report.correct()) layers.Mismatch("untraced run failed");
    const auto shards = BuildShards(*w, in, served_inserts);
    Trace tr = Replay(*w, in, serving, *ref, shards,
                      std::min(args.seconds, kReplaySeconds),
                      load.timings.size());
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir);
      const std::string stem = args.trace_dir + "/" + w->name + "-seed" +
                               std::to_string(args.seed);
      if (!tr.log.WriteJsonLines(stem + ".jsonl")) {
        layers.Error("cannot write " + stem + ".jsonl");
      }
      std::FILE* f = std::fopen((stem + ".metrics.txt").c_str(), "w");
      if (f == nullptr || std::fputs(final_page.c_str(), f) < 0 ||
          std::fclose(f) != 0) {
        layers.Error("cannot write " + stem + ".metrics.txt");
      }
    }
    for (const auto& [name, samples] : tr.per_request) {
      layers.Set(name, Median(samples.values), samples.unit);
    }
    layers.Set("cascade.dtw_useful_ratio",
               Ratio(static_cast<double>(tr.cascade_total.results),
                     static_cast<double>(tr.cascade_total.exact_dtw_calls)),
               "ratio");
    layers.Set("engine.dtw_vs_unsharded",
               Ratio(static_cast<double>(tr.shard_dtw),
                     static_cast<double>(tr.unsharded_dtw)),
               "ratio");
    layers.Set("tracing.overhead_pct",
               100.0 * (Median(tr.request_ms) / Median(tr.bare_ms) - 1.0), "%");
    layers.Set("loadgen.late_p99_ms", P99OrThrow(late_ms, "lateness"), "ms");
    layers.Set("engine.insert_us", Median(Scaled(storage.insert_s, 1e6)), "us");
    // The tails of the untraced load. On a shared 4-vCPU host their
    // run-to-run spread exceeds any bound an end-to-end metric may carry, so
    // they are reported here, without one.
    layers.Set("p99_ms", P99OrThrow(latency_ms, "query latency"), "ms");
    layers.Set("insert_p99_ms",
               P99OrThrow(Scaled(storage.insert_s, 1e3), "insert"), "ms");

    // Registry counters, as deltas of the `metrics` page. Hedges and
    // failovers register on their first event; a page without them means
    // none happened.
    const MetricsPage& b = *before;
    const MetricsPage& l = *after_load;
    const MetricsPage& st = *after_storage;
    auto events = [&](const char* name) {
      return l.Has(name) ? MetricsPage::Delta(l, b, name) : 0.0;
    };
    layers.Set("engine.hedged_attempts", events("serve.hedged_attempts"),
               "count");
    layers.Set("engine.failovers", events("serve.failovers"), "count");
    const double inserts = static_cast<double>(storage.insert_s.size());
    layers.Set("wal.appends_per_insert",
               Ratio(MetricsPage::Delta(st, b, "wal.appends"), inserts),
               "count");
    layers.Set("wal.bytes_per_insert",
               Ratio(MetricsPage::Delta(st, b, "wal.bytes"), inserts), "bytes");
    const char* kCheckpoint = "checkpoint.duration_ns";
    layers.Set("qbh.checkpoint_ms",
               Ratio(MetricsPage::HistSumDelta(st, b, kCheckpoint),
                     MetricsPage::HistCountDelta(st, b, kCheckpoint)) / 1e6,
               "ms");
    layers.Set("storage.open_ms",
               Ratio(st.HistSum("storage.open_ns"),
                     st.HistCount("storage.open_ns")) / 1e6,
               "ms");
    const double queries = static_cast<double>(load.timings.size());
    layers.Set("pool.tasks_per_query",
               Ratio(MetricsPage::Delta(l, b, "thread_pool.tasks_executed"),
                     queries),
               "count");
    const double workers =
        static_cast<double>(humdex::ThreadPool::DefaultThreadCount());
    layers.Set("pool.busy_share",
               MetricsPage::Delta(l, b, "thread_pool.worker_busy_ns") /
                   (load.wall_s * 1e9 * workers),
               "ratio");
  }

  const Report& result = args.trace ? layers : report;
  result.Print();
  serving = Serving();  // stops the server, then closes the engine
  if (w->durable) {
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(setup_dir);
  }
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "humbench: %s\n", e.what());
    return 1;
  }
}
