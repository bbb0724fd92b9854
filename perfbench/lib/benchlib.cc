#include "lib/benchlib.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "serve/protocol.h"
#include "util/random.h"

namespace perfbench {

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::optional<double> TailPercentile(std::vector<double> values, double p,
                                     std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::optional<double> WindowedTail(const std::vector<double>& in_order,
                                   double p, std::size_t window) {
  const std::size_t windows =
      std::max<std::size_t>(in_order.size() / window, 1);
  std::vector<double> tails;
  for (std::size_t k = 0; k < windows; ++k) {
    // The last window takes the remainder.
    const std::size_t end =
        k + 1 == windows ? in_order.size() : (k + 1) * window;
    std::vector<double> part;
    for (std::size_t i = k * window; i < end; ++i) part.push_back(in_order[i]);
    const std::optional<double> tail = TailPercentile(std::move(part), p);
    if (!tail) return std::nullopt;
    tails.push_back(*tail);
  }
  return Median(tails);
}

double MedianRate(std::vector<double> end_s, std::size_t windows) {
  if (end_s.empty()) return 0.0;
  std::sort(end_s.begin(), end_s.end());
  const std::size_t n = end_s.size();
  if (n < 2 * windows) windows = 1;
  std::vector<double> rates;
  double since = 0.0;
  for (std::size_t k = 0; k < windows; ++k) {
    const std::size_t first = k * n / windows;
    const std::size_t last = (k + 1) * n / windows;  // exclusive
    const double span = end_s[last - 1] - since;
    rates.push_back(static_cast<double>(last - first) /
                    std::max(span, 1e-9));
    since = end_s[last - 1];
  }
  return Median(rates);
}

// --- Load generation --------------------------------------------------------

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> PoissonArrivals(double rate, double duration_s,
                                    std::uint64_t seed) {
  humdex::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<CallTiming> RunOpenLoop(const std::vector<double>& due_s,
                                    std::size_t connections,
                                    const Call& call) {
  std::vector<CallTiming> out(due_s.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now();
  auto since_t0 = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  auto worker = [&](std::size_t conn) {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= due_s.size()) return;
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(due_s[i])));
      CallTiming& t = out[i];
      t.due_s = due_s[i];
      t.start_s = since_t0();
      t.ok = call(conn, i);
      t.end_s = since_t0();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& th : threads) th.join();
  return out;
}

std::vector<CallTiming> RunClosedLoop(double duration_s,
                                      std::size_t connections,
                                      const Call& call) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::pair<std::size_t, CallTiming>> taken;
  const double t0 = NowSeconds();
  auto worker = [&](std::size_t conn) {
    std::vector<std::pair<std::size_t, CallTiming>> mine;
    while (NowSeconds() - t0 < duration_s) {
      const std::size_t i = next.fetch_add(1);
      CallTiming t;
      t.start_s = t.due_s = NowSeconds() - t0;
      t.ok = call(conn, i);
      t.end_s = NowSeconds() - t0;
      mine.emplace_back(i, t);
    }
    std::lock_guard<std::mutex> lock(mu);
    taken.insert(taken.end(), mine.begin(), mine.end());
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& th : threads) th.join();
  std::sort(taken.begin(), taken.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<CallTiming> out;
  out.reserve(taken.size());
  for (const auto& [i, t] : taken) out.push_back(t);
  return out;
}

// --- Spans ------------------------------------------------------------------

int SpanLog::Add(std::uint64_t request_id, std::string name, int parent,
                 std::int64_t start_ns, std::int64_t end_ns) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{request_id, std::move(name), parent, start_ns, end_ns});
  children_.emplace_back();
  if (parent >= 0) {
    children_.at(static_cast<std::size_t>(parent)).push_back(index);
  }
  return index;
}

std::int64_t SpanLog::SelfNs(int index) const {
  const Span& span = spans_.at(static_cast<std::size_t>(index));
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (int c : children_[static_cast<std::size_t>(index)]) {
    const Span& child = spans_[static_cast<std::size_t>(c)];
    const std::int64_t lo = std::max(child.start_ns, span.start_ns);
    const std::int64_t hi = std::min(child.end_ns, span.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_ns() - union_ns;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"request\":%llu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.request_id), s.name.c_str(),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(SelfNs(static_cast<int>(i))));
  }
  return std::fclose(f) == 0;
}

// --- Metrics page scraper ---------------------------------------------------

namespace {

std::string PromName(const std::string& registry_name) {
  std::string out = "humdex_";
  for (char c : registry_name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
    out.push_back(keep ? c : '_');
  }
  return out;
}

std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", q);
  return std::string("{quantile=\"") + buf + "\"}";
}

}  // namespace

humdex::Result<MetricsPage> MetricsPage::Parse(const std::string& text) {
  MetricsPage page;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      return humdex::Status::Corruption("metrics line without a value: " +
                                        line);
    }
    const std::string value_text = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      return humdex::Status::Corruption("metrics line with a bad value: " +
                                        line);
    }
    page.samples_[line.substr(0, space)] = value;
  }
  return page;
}

double MetricsPage::Lookup(const std::string& series) const {
  const auto it = samples_.find(series);
  if (it == samples_.end()) {
    throw std::runtime_error("metrics page has no series " + series);
  }
  return it->second;
}

bool MetricsPage::Has(const std::string& registry_name) const {
  const std::string p = PromName(registry_name);
  return samples_.count(p) > 0 || samples_.count(p + "_count") > 0;
}

double MetricsPage::Value(const std::string& registry_name) const {
  return Lookup(PromName(registry_name));
}

double MetricsPage::HistCount(const std::string& registry_name) const {
  return Lookup(PromName(registry_name) + "_count");
}

double MetricsPage::HistSum(const std::string& registry_name) const {
  return Lookup(PromName(registry_name) + "_sum");
}

double MetricsPage::HistQuantile(const std::string& registry_name,
                                 double q) const {
  return Lookup(PromName(registry_name) + QuantileLabel(q));
}

double MetricsPage::Delta(const MetricsPage& after, const MetricsPage& before,
                          const std::string& registry_name) {
  const double a = after.Value(registry_name);
  return before.Has(registry_name) ? a - before.Value(registry_name) : a;
}

double MetricsPage::HistCountDelta(const MetricsPage& after,
                                   const MetricsPage& before,
                                   const std::string& registry_name) {
  const double a = after.HistCount(registry_name);
  return before.Has(registry_name) ? a - before.HistCount(registry_name) : a;
}

double MetricsPage::HistSumDelta(const MetricsPage& after,
                                 const MetricsPage& before,
                                 const std::string& registry_name) {
  const double a = after.HistSum(registry_name);
  return before.Has(registry_name) ? a - before.HistSum(registry_name) : a;
}

// --- Oracles ----------------------------------------------------------------

namespace {

std::string Describe(const humdex::QbhMatch& m) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(id %lld, %.17g, ",
                static_cast<long long>(m.id), m.distance);
  return buf + m.name + ")";
}

}  // namespace

std::string CompareExact(const std::vector<humdex::QbhMatch>& got,
                         const std::vector<humdex::QbhMatch>& want) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " matches, want " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].name != want[i].name ||
        got[i].distance != want[i].distance) {
      return "rank " + std::to_string(i) + ": got " + Describe(got[i]) +
             ", want " + Describe(want[i]);
    }
  }
  return "";
}

std::string CheckRangeAnswer(const std::vector<humdex::QbhMatch>& got,
                             const std::vector<humdex::QbhMatch>& reference,
                             std::int64_t base_ids) {
  std::unordered_map<std::int64_t, const humdex::QbhMatch*> by_id;
  for (const humdex::QbhMatch& m : reference) by_id[m.id] = &m;
  std::size_t base_seen = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const humdex::QbhMatch& m = got[i];
    const auto it = by_id.find(m.id);
    if (it == by_id.end()) {
      return "match " + Describe(m) + " is not in the reference answer";
    }
    if (it->second->name != m.name || it->second->distance != m.distance) {
      return "match " + Describe(m) + " differs from the reference " +
             Describe(*it->second);
    }
    const humdex::QbhMatch* prev = i > 0 ? &got[i - 1] : nullptr;
    if (prev != nullptr &&
        (prev->distance > m.distance ||
         (prev->distance == m.distance && prev->id >= m.id))) {
      return "matches out of (distance, id) order at rank " +
             std::to_string(i);
    }
    if (m.id < base_ids) ++base_seen;
  }
  std::size_t base_want = 0;
  for (const humdex::QbhMatch& m : reference) base_want += m.id < base_ids;
  if (base_seen != base_want) {
    return "got " + std::to_string(base_seen) + " base-corpus matches, want " +
           std::to_string(base_want);
  }
  return "";
}

// --- Process and files ------------------------------------------------------

std::uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// --- Wire client ------------------------------------------------------------

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool WireClient::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool WireClient::Send(const std::string& frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t r =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (r <= 0) return false;
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

bool WireClient::Receive(std::string* payload, std::size_t* frame_bytes) {
  char chunk[65536];
  while (true) {
    std::size_t consumed = 0;
    bool complete = false;
    if (!humdex::serve::DecodeFrame(buffer_, payload, &consumed, &complete)
             .ok()) {
      return false;
    }
    if (complete) {
      buffer_.erase(0, consumed);
      *frame_bytes = consumed;
      return true;
    }
    const ssize_t r = ::read(fd_, chunk, sizeof(chunk));
    if (r <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(r));
  }
}

}  // namespace perfbench
