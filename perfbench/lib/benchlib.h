// Building blocks of the end-to-end benchmark (perfbench/humbench.cc) that
// carry its measurement rules, kept apart so perfbench/tests/selftest.cc can
// check each rule on planted inputs:
//
//   - percentiles, reported only when enough samples lie beyond them;
//   - closed- and open-loop load generators (open loop times each request
//     from when it was due, so a stall shows in every later request);
//   - an in-memory span log with self times by interval subtraction;
//   - a scraper for the daemon's Prometheus `metrics` page that fails
//     loudly on a missing series;
//   - the answer oracles (exact kNN equality, the range_rw insert rule);
//   - a blocking loopback client for the humdexd wire protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "qbh/qbh_system.h"

namespace perfbench {

// --- Statistics -------------------------------------------------------------

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank p-th percentile of `values`, or nullopt when fewer than
/// `min_beyond` samples rank above it: a tail figure resting on a handful of
/// samples is noise, and the benchmark reports nothing rather than that.
std::optional<double> TailPercentile(std::vector<double> values, double p,
                                     std::size_t min_beyond = 10);

/// The p-th percentile of `in_order` (samples in the order they were
/// taken) computed per window of `window` consecutive samples, median over
/// the windows; one window when there are fewer than two. Each window must
/// pass TailPercentile's rule, so with the default window of 1000 a p99 has
/// ten samples beyond it in every window. The median over windows keeps a
/// burst of host interference in one window from setting the whole run's
/// tail. nullopt when a window fails the rule.
std::optional<double> WindowedTail(const std::vector<double>& in_order,
                                   double p, std::size_t window = 1000);

/// Throughput as the median over `windows` runs of consecutive completions:
/// the completion times `end_s` (seconds since the load began) are split
/// into `windows` equal groups, each group's rate is its size over the time
/// since the previous group's last completion, and the median rate is
/// returned. A host stall slows the one or two groups it falls in, not the
/// whole figure, as it would a mean over the run. With fewer than two
/// completions per window, one window over everything; 0 if empty.
double MedianRate(std::vector<double> end_s, std::size_t windows = 25);

// --- Load generation --------------------------------------------------------

/// One request as the load generator saw it, in seconds since the run began.
struct CallTiming {
  double due_s = 0.0;    ///< when the schedule wanted it sent
  double start_s = 0.0;  ///< when the generator got to send it
  double end_s = 0.0;    ///< when its answer was in
  bool ok = false;
  /// Latency as a user sees it: from when the request was due.
  double latency_s() const { return end_s - due_s; }
  /// How late the generator itself was (validity of the open loop).
  double late_s() const { return start_s - due_s; }
};

/// `call(connection, request_index)` performs one request and returns
/// whether it succeeded.
using Call = std::function<bool(std::size_t, std::size_t)>;

/// Arrival offsets (seconds from the start) of a Poisson process of `rate`
/// requests per second over `duration_s`, drawn from `seed`.
std::vector<double> PoissonArrivals(double rate, double duration_s,
                                    std::uint64_t seed);

/// Open loop: request i is due at `due_s[i]`. Each of `connections` threads
/// takes the next request in due order, waits until it is due, and sends it.
/// When every connection is busy, requests wait, and that wait counts in
/// their latency. Returns one timing per request, in request order.
std::vector<CallTiming> RunOpenLoop(const std::vector<double>& due_s,
                                    std::size_t connections, const Call& call);

/// Closed loop: each of `connections` threads sends its next request as soon
/// as the previous one is answered, until `duration_s` has passed. Requests
/// are numbered in the order they are taken. Timings come back in that
/// order (due == start).
std::vector<CallTiming> RunClosedLoop(double duration_s,
                                      std::size_t connections,
                                      const Call& call);

// --- Spans ------------------------------------------------------------------

/// One timed step of one request. Times are nanoseconds on one clock per
/// request; a child's interval normally lies inside its parent's.
struct Span {
  std::uint64_t request_id = 0;
  std::string name;
  int parent = -1;  ///< index into the log, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans kept in memory for the whole run and written out when it ends.
class SpanLog {
 public:
  /// Record a span; returns its index (the handle children name as parent).
  int Add(std::uint64_t request_id, std::string name, int parent,
          std::int64_t start_ns, std::int64_t end_ns);

  /// The span's duration minus the part of its interval that its direct
  /// children cover (overlapping children count once, parts of a child
  /// outside the parent not at all).
  std::int64_t SelfNs(int index) const;

  /// One JSON object per line: request, name, parent, start_ns, end_ns,
  /// self_ns. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

// --- Metrics page scraper ---------------------------------------------------

/// A parsed Prometheus text page from the `metrics` verb. Series are looked
/// up by their registry names ("wal.appends"); the humdex_ prefix and the
/// '.'->'_' mangling are applied here.
class MetricsPage {
 public:
  /// Parse the page. Malformed sample lines are an error, not skipped.
  static humdex::Result<MetricsPage> Parse(const std::string& text);

  bool Has(const std::string& registry_name) const;

  /// A counter or gauge. Throws std::runtime_error naming the series when
  /// the page lacks it, so a renamed counter cannot silently read as zero.
  double Value(const std::string& registry_name) const;

  /// A histogram's `_count`, `_sum`, or a `{quantile="q"}` line; throws like
  /// Value when missing.
  double HistCount(const std::string& registry_name) const;
  double HistSum(const std::string& registry_name) const;
  double HistQuantile(const std::string& registry_name, double q) const;

  /// after.Value(name) - before.Value(name). `after` must carry the series;
  /// `before` may lack it (the registry creates series on first use), which
  /// reads as zero.
  static double Delta(const MetricsPage& after, const MetricsPage& before,
                      const std::string& registry_name);
  static double HistCountDelta(const MetricsPage& after,
                               const MetricsPage& before,
                               const std::string& registry_name);
  static double HistSumDelta(const MetricsPage& after,
                             const MetricsPage& before,
                             const std::string& registry_name);

 private:
  double Lookup(const std::string& series) const;
  std::map<std::string, double> samples_;  // full series text -> value
};

// --- Oracles ----------------------------------------------------------------

/// Empty when `got` equals `want` exactly: same length, ids, names, and
/// bit-identical distances, in order. Otherwise the first difference.
std::string CompareExact(const std::vector<humdex::QbhMatch>& got,
                         const std::vector<humdex::QbhMatch>& want);

/// The range answer rule under concurrent inserts. `reference` is the range
/// answer of an unsharded system holding the base corpus (ids below
/// `base_ids`) plus every insert made during the run. `got` must contain
/// exactly the reference's base-corpus matches, and every inserted id it
/// returns must carry the reference's name and distance for that id; it
/// must be ascending by (distance, id). Empty when the answer passes.
std::string CheckRangeAnswer(const std::vector<humdex::QbhMatch>& got,
                             const std::vector<humdex::QbhMatch>& reference,
                             std::int64_t base_ids);

// --- Process and files ------------------------------------------------------

/// Resident set size of this process in bytes (from /proc/self/statm).
std::uint64_t ResidentBytes();

/// Total size of the regular files under `dir`, recursively.
std::uint64_t DirectoryBytes(const std::string& dir);

/// Seconds on the steady clock (an arbitrary epoch).
double NowSeconds();

// --- Wire client ------------------------------------------------------------

/// One blocking loopback connection speaking the length-prefixed protocol.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(int port);
  /// Send one already-framed request.
  bool Send(const std::string& frame);
  /// Receive one frame's payload; `*frame_bytes` gets its size on the wire.
  bool Receive(std::string* payload, std::size_t* frame_bytes);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
