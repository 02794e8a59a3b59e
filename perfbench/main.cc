// dfs_perfbench: runs one workload and prints every metric by name with its
// unit, then one JSON object as the last line of standard output.
//
//   dfs_perfbench --workload hot_read|stream|shared_write --seed N
//                 --seconds S --trace 0|1
//
// --trace 0 (end to end): the cell is set up kSetups times (setup_s is the
// median), warmed, then every client runs its closed loop for S seconds with
// no span recorded anywhere. Latency percentiles are over successful ops;
// failed ops count in the result line's "failed", show in the printed
// ok_op_ratio and failed_op_ratio, and never count as throughput.
// --trace 1 (per layer): after the same set-ups an untraced cell runs S/2
// seconds, then a traced cell (timing decorators at the public boundaries)
// runs S/2 seconds; per-layer numbers come from the traced one, and the drop
// in ops_per_s between the two is the stated tracing overhead.
//
// Either way, after the loops stop a fresh client reads back every file the
// run wrote; any record that is not what the model allows is a mismatch, and a
// mismatch makes the run incorrect (exit code 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>

#include "perfbench/bench.h"
#include "src/common/lock_order.h"

namespace perfbench {
namespace {

using dfs::CacheManager;

constexpr int kSetups = 9;
constexpr int kWindows = 10;
constexpr int kNullCalls = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) {
    return false;
  }
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string k = argv[i];
      std::string v = argv[i + 1];
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::stoull(v);
      } else if (k == "--seconds") {
        a->seconds = std::stod(v);
      } else if (k == "--trace") {
        a->trace = v == "1";
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return !a->workload.empty() && a->seconds > 0;
}

// --- Counter snapshots ------------------------------------------------------

struct Counters {
  std::vector<CacheManager::Stats> cm;
  dfs::FileServer::Stats srv;
  dfs::TokenManager::Stats tok;
  dfs::Wal::Stats wal;
  dfs::BufferCache::Stats buf;
  dfs::DeviceStats dev;
  dfs::LinkStats total, c2s, s2c;
  uint64_t lock_checks = 0;
  uint64_t tokens_held = 0;  // by the load clients, at the snapshot
  TraceSnapshot trace;
};

// One set-up of a workload: its model, its cell and one driver per client.
// Declaration order is teardown order reversed: drivers (holding vnodes of
// the cell's clients and references into the workload's model) go first.
struct Instance {
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Cell> cell;
  std::vector<CacheManager*> clients;
  std::vector<std::unique_ptr<Driver>> drivers;

  Counters Snapshot() const {
    Counters c;
    for (CacheManager* cm : clients) {
      c.cm.push_back(cm->stats());
      c.c2s += cell->net.StatsBetween(cm->node(), kServerNode);
      c.s2c += cell->net.StatsBetween(kServerNode, cm->node());
      c.tokens_held += cell->server->tokens().TokensForHost(cm->node()).size();
    }
    c.srv = cell->server->stats();
    c.tok = cell->server->tokens().stats();
    c.wal = cell->agg->wal().stats();
    c.buf = cell->agg->cache().stats();
    c.dev = cell->disk->stats();
    c.total = cell->net.TotalStats();
    c.lock_checks = dfs::LockOrderChecker::checked_count();
    if (tracer != nullptr) {
      c.trace = tracer->Snapshot();
    }
    return c;
  }
};

std::unique_ptr<Instance> SetUp(const Args& args, bool traced, std::string* error) {
  auto in = std::make_unique<Instance>();
  if (traced) {
    in->tracer = std::make_unique<Tracer>();
  }
  in->workload = MakeWorkload(args.workload, args.seed);
  if (in->workload == nullptr) {
    *error = "unknown workload " + args.workload;
    return nullptr;
  }
  in->cell = Cell::Create(in->workload->cell_options(), in->tracer.get(), error);
  if (in->cell == nullptr) {
    return nullptr;
  }
  dfs::Status st = in->workload->Populate(*in->cell);
  if (!st.ok()) {
    *error = "populate: " + st.ToString();
    return nullptr;
  }
  for (int i = 0; i < in->workload->clients(); ++i) {
    CacheManager* cm = in->cell->NewClient();
    if (cm == nullptr) {
      *error = "client creation failed";
      return nullptr;
    }
    auto d = in->workload->MakeDriver(cm, i);
    if (!d.ok()) {
      *error = "client " + std::to_string(i) + " set-up: " + d.status().ToString();
      return nullptr;
    }
    in->clients.push_back(cm);
    in->drivers.push_back(std::move(*d));
  }
  return in;
}

// --- Running the closed loops -----------------------------------------------

struct Phase {
  std::vector<ClientResult> results;
  double elapsed_s = 0;

  ClientResult Merged() const {
    ClientResult m;
    m.ok_per_window.assign(kWindows, 0);
    for (const ClientResult& r : results) {
      for (int c = 0; c < kOpClasses; ++c) {
        m.hist[c].Merge(r.hist[c]);
      }
      for (int w = 0; w < kWindows; ++w) {
        m.ok_per_window[w] += r.ok_per_window[w];
      }
      m.attempted += r.attempted;
      m.ok += r.ok;
      m.failed += r.failed;
      m.mismatches += r.mismatches;
      m.op_ns += r.op_ns;
      m.read_bytes += r.read_bytes;
      m.written_bytes += r.written_bytes;
      m.durable_bytes += r.durable_bytes;
      for (const auto& [what, n] : r.errors) {
        m.errors[what] += n;
      }
    }
    return m;
  }

};

Phase RunPhase(Instance& in, double seconds) {
  Phase p;
  size_t n = in.drivers.size();
  p.results.resize(n);
  uint64_t t0 = NowNs();
  uint64_t span_ns = static_cast<uint64_t>(seconds * 1e9);
  for (ClientResult& r : p.results) {
    r.t0_ns = t0;
    r.window_ns = std::max<uint64_t>(1, span_ns / kWindows);
    r.ok_per_window.assign(kWindows, 0);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      while (!stop.load(std::memory_order_relaxed)) {
        in.drivers[i]->Step(p.results[i]);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(span_ns));
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  p.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  return p;
}

double WarmupSeconds(double seconds) { return std::min(2.0, seconds * 0.2); }

// Warms the loops up (caches fill, lazy set-up finishes), then measures
// `seconds` between two counter snapshots.
Phase Measure(Instance& in, double seconds, Counters* before, Counters* after) {
  (void)RunPhase(in, WarmupSeconds(seconds));
  *before = in.Snapshot();
  Phase p = RunPhase(in, seconds);
  *after = in.Snapshot();
  return p;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// Successful ops over the measured time, summed over all clients.
double OpsPerSecond(const ClientResult& m, const Phase& p) {
  return static_cast<double>(m.ok) / p.elapsed_s;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what a ratio or per-op value was divided by
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "") {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, base});
  }
  // Human-readable only: not part of the JSON line.
  void Note(const std::string& name, double value, const std::string& unit,
            const std::string& base = "") {
    notes_.push_back({name, std::isfinite(value) ? value : 0.0, unit, base});
  }
  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const auto* list : {&metrics_, &notes_}) {
      for (const Metric& m : *list) {
        std::printf("  %-34s %16.4f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.base.c_str());
      }
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Base(const char* what, double n) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "(base: %.0f %s)", n, what);
  return buf;
}

void AddEndToEnd(Report& rep, const ClientResult& m, const Phase& p, const Counters& a,
                 const Counters& b) {
  double ops = static_cast<double>(m.attempted);
  std::string per_op = Base("ops attempted", ops);
  rep.Add("ops_per_s", OpsPerSecond(m, p), "1/s", Base("successful ops", m.ok));
  // Tail percentiles are reported but not gated: across runs on a shared
  // host they spread wider than any bound a regression gate can use.
  auto pct = [&](const char* name, OpClass c, double q, bool gated) {
    double v = m.hist[c].PercentileUs(q);
    std::string base = Base("samples", m.hist[c].count());
    if (gated) {
      rep.Add(name, v, "us", base);
    } else {
      rep.Note(name, v, "us", base);
    }
  };
  pct("read_p50_us", kRead, 0.50, true);
  pct("read_p99_us", kRead, 0.99, false);
  pct("write_p50_us", kWrite, 0.50, true);
  pct("write_p99_us", kWrite, 0.99, false);
  pct("meta_p50_us", kMeta, 0.50, true);
  pct("meta_p99_us", kMeta, 0.99, false);
  pct("fsync_p50_us", kFsync, 0.50, true);
  pct("fsync_p90_us", kFsync, 0.90, false);
  rep.Add("read_MBps", m.read_bytes / p.elapsed_s / 1e6, "MB/s",
          Base("verified bytes read", m.read_bytes));
  rep.Add("write_MBps", m.durable_bytes / p.elapsed_s / 1e6, "MB/s",
          Base("bytes made durable by fsync", m.durable_bytes));
  rep.Add("rpcs_per_op", Ratio(b.total.calls - a.total.calls, ops), "1/op", per_op);
  rep.Add("wire_bytes_per_op", Ratio(b.total.bytes - a.total.bytes, ops), "B/op", per_op);
  rep.Note("ok_op_ratio", Ratio(m.ok, ops), "ratio", per_op);
  rep.Note("failed_op_ratio", Ratio(m.failed, ops), "ratio", per_op);
}

template <typename S, typename F>
double Delta(const std::vector<S>& a, const std::vector<S>& b, F field) {
  double d = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    d += static_cast<double>(b[i].*field - a[i].*field);
  }
  return d;
}

void AddPerLayer(Report& rep, const ClientResult& m, const Counters& a, const Counters& b,
                 double null_call_p50_us, double untraced_ops_per_s, double traced_ops_per_s) {
  using CS = CacheManager::Stats;
  double ops = static_cast<double>(m.attempted);
  std::string per_op = Base("ops attempted", ops);
  auto cm = [&](uint64_t CS::*f) { return Delta(a.cm, b.cm, f); };
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  auto us = [&](uint64_t ns) { return static_cast<double>(ns) / 1000.0 / ops; };

  double hits = cm(&CS::data_cache_hits);
  double lookups = hits + cm(&CS::data_cache_misses);
  rep.Add("client.data_hit_ratio", Ratio(hits, lookups), "ratio", Base("data lookups", lookups));
  rep.Add("client.lookup_hits_per_op", cm(&CS::lookup_cache_hits) / ops, "1/op", per_op);
  rep.Add("client.attr_hits_per_op", cm(&CS::attr_cache_hits) / ops, "1/op", per_op);
  // Evictions, prefetch and split bulk RPCs only happen on stream, which is not
  // a BENCHMARK.json workload, so they are printed but not in the JSON line.
  rep.Note("client.evictions_per_op", cm(&CS::cache_evictions) / ops, "1/op", per_op);
  double pf = cm(&CS::prefetch_hits) + cm(&CS::prefetch_wasted);
  rep.Note("client.prefetch_useful_ratio", Ratio(cm(&CS::prefetch_hits), pf), "ratio",
          Base("prefetched blocks hit or wasted", pf));
  double moved = cm(&CS::bytes_moved);
  rep.Add("client.copy_ratio", Ratio(cm(&CS::bytes_copied), moved), "ratio",
          Base("bytes moved", moved));
  rep.Note("client.split_rpcs_per_op", cm(&CS::bulk_rpcs_split) / ops, "1/op", per_op);
  rep.Add("client.revocations_per_op", cm(&CS::revocations_handled) / ops, "1/op", per_op);
  rep.Add("client.dirty_stores_per_op", cm(&CS::dirty_stores) / ops, "1/op", per_op);

  // Spans. A server handle is awaited by the op that sent it or, for
  // kServerRev, by a client revocation handler; a revocation handler is
  // awaited by a server handle. Each layer's self time is its span time minus
  // the spans it awaited, and client_rpc (client code plus wire, which cannot
  // be split from outside) is op time minus server handle time. The residual
  // is what falls outside that tree: Episode or device time spent on no
  // server handle's thread. Parallel revocation fan-out overlaps awaited
  // spans, which lowers server self time.
  const TraceSnapshot& ta = a.trace;
  const TraceSnapshot& tb = b.trace;
  auto layer = [&](Layer l) {
    LayerTotals t;
    t.calls = tb[l].calls - ta[l].calls;
    t.total_ns = tb[l].total_ns - ta[l].total_ns;
    t.child_ns = tb[l].child_ns - ta[l].child_ns;
    return t;
  };
  LayerTotals srv = layer(Layer::kServer);
  LayerTotals srv_rev = layer(Layer::kServerRev);
  LayerTotals crev = layer(Layer::kClientRevoke);
  LayerTotals ep = layer(Layer::kEpisode);
  LayerTotals bd = layer(Layer::kBlockdev);
  // Self times in signed ns, so the residual is exact.
  auto sns = [](uint64_t v) { return static_cast<int64_t>(v); };
  int64_t op_ns = sns(m.op_ns);
  int64_t client_ns = op_ns - sns(srv.total_ns);
  int64_t revoke_ns = sns(crev.total_ns) - sns(srv_rev.total_ns);
  int64_t server_ns = sns(srv.total_ns) + sns(srv_rev.total_ns) - sns(srv.child_ns) -
                      sns(srv_rev.child_ns) - sns(crev.total_ns);
  int64_t episode_ns = sns(ep.total_ns) - sns(ep.child_ns);
  int64_t blockdev_ns = sns(bd.total_ns);
  int64_t residual_ns = op_ns - client_ns - revoke_ns - server_ns - episode_ns - blockdev_ns;
  auto sus = [&](int64_t ns) { return static_cast<double>(ns) / 1000.0 / ops; };
  rep.Add("client.revoke_handle_us_per_op", sus(revoke_ns), "us/op", per_op);
  rep.Add("client_rpc.self_us_per_op", sus(client_ns), "us/op", per_op);

  double c2s = d(a.c2s.calls, b.c2s.calls);
  double s2c = d(a.s2c.calls, b.s2c.calls);
  double calls = d(a.total.calls, b.total.calls);
  rep.Add("rpc.c2s_calls_per_op", c2s / ops, "1/op", per_op);
  rep.Add("rpc.s2c_calls_per_op", s2c / ops, "1/op", per_op);
  rep.Add("rpc.bytes_per_call", Ratio(d(a.total.bytes, b.total.bytes), calls), "B/call",
          Base("calls", calls));
  rep.Add("rpc.null_call_p50_us", null_call_p50_us, "us", Base("null calls", kNullCalls));

  Histogram handle = tb.server_handle;
  handle.Subtract(ta.server_handle);
  rep.Add("server.handle_p50_us", handle.PercentileUs(0.5), "us",
          Base("handles", handle.count()));
  rep.Add("server.handle_p99_us", handle.PercentileUs(0.99), "us",
          Base("handles", handle.count()));
  rep.Add("server.self_us_per_op", sus(server_ns), "us/op", per_op);
  rep.Add("server.fetch_data_calls_per_op", d(a.srv.fetch_data_calls, b.srv.fetch_data_calls) / ops,
          "1/op", per_op);
  double smoved = d(a.srv.bytes_moved, b.srv.bytes_moved);
  rep.Add("server.copy_ratio", Ratio(d(a.srv.bytes_copied, b.srv.bytes_copied), smoved), "ratio",
          Base("bytes moved", smoved));

  rep.Add("tokens.grants_per_op", d(a.tok.grants, b.tok.grants) / ops, "1/op", per_op);
  rep.Add("tokens.revocations_per_op", d(a.tok.revocations, b.tok.revocations) / ops, "1/op",
          per_op);
  rep.Add("tokens.deferred_per_op", d(a.tok.deferred_returns, b.tok.deferred_returns) / ops,
          "1/op", per_op);
  // No workload makes the token manager refuse a grant: printed, not gated.
  rep.Note("tokens.refusals_per_op", d(a.tok.refusals, b.tok.refusals) / ops, "1/op", per_op);
  rep.Add("tokens.fanout_batches_per_op", d(a.tok.fanout_batches, b.tok.fanout_batches) / ops,
          "1/op", per_op);
  rep.Add("tokens.held_at_end", static_cast<double>(b.tokens_held), "count",
          "(tokens the load clients held when the timed region ended)");
  double acq = d(a.tok.lock_acquisitions, b.tok.lock_acquisitions);
  rep.Add("tokens.lock_contended_ratio", Ratio(d(a.tok.lock_contended, b.tok.lock_contended), acq),
          "ratio", Base("shard lock acquisitions", acq));

  rep.Add("episode.calls_per_op", ep.calls / ops, "1/op", per_op);
  rep.Add("episode.busy_us_per_op", us(ep.total_ns), "us/op", per_op);
  rep.Add("episode.self_us_per_op", sus(episode_ns), "us/op", per_op);

  double flushes = d(a.wal.log_flushes, b.wal.log_flushes);
  double commits = d(a.wal.commits, b.wal.commits);
  rep.Add("wal.commits_per_op", commits / ops, "1/op", per_op);
  rep.Add("wal.commits_per_flush", Ratio(commits, flushes), "ratio", Base("log flushes", flushes));
  rep.Add("wal.log_bytes_per_op", d(a.wal.log_bytes_flushed, b.wal.log_bytes_flushed) / ops,
          "B/op", per_op);

  double bhits = d(a.buf.hits, b.buf.hits);
  double bmiss = d(a.buf.misses, b.buf.misses);
  rep.Add("buf.hit_ratio", Ratio(bhits, bhits + bmiss), "ratio",
          Base("buffer lookups", bhits + bmiss));
  rep.Add("buf.hits_per_op", bhits / ops, "1/op", per_op);
  rep.Add("buf.misses_per_op", bmiss / ops, "1/op", per_op);
  rep.Add("buf.writebacks_per_op", d(a.buf.writebacks, b.buf.writebacks) / ops, "1/op", per_op);

  double dwrites = d(a.dev.writes, b.dev.writes);
  rep.Add("blockdev.reads_per_op", d(a.dev.reads, b.dev.reads) / ops, "1/op", per_op);
  rep.Add("blockdev.writes_per_op", dwrites / ops, "1/op", per_op);
  rep.Add("blockdev.flushes_per_op", d(a.dev.flushes, b.dev.flushes) / ops, "1/op", per_op);
  rep.Add("blockdev.random_write_ratio", Ratio(d(a.dev.random_writes, b.dev.random_writes), dwrites),
          "ratio", Base("device writes", dwrites));
  rep.Add("blockdev.bytes_written_per_user_byte",
          Ratio(dwrites * dfs::kBlockSize, static_cast<double>(m.written_bytes)), "B/B",
          Base("user bytes written", m.written_bytes));
  rep.Add("blockdev.busy_us_per_op", sus(blockdev_ns), "us/op", per_op);

  rep.Add("common.lock_checks_per_op", d(a.lock_checks, b.lock_checks) / ops, "1/op", per_op);

  rep.Add("trace.op_mean_us", us(m.op_ns), "us", per_op);
  // 0 unless Episode or the device runs outside every server handle (see
  // above), so it is printed as the stated residual but not in the JSON line.
  rep.Note("trace.residual_us_per_op", sus(residual_ns), "us/op", per_op);
  rep.Add("trace.overhead_ratio", 1.0 - Ratio(traced_ops_per_s, untraced_ops_per_s), "ratio",
          "(1 - traced/untraced ops_per_s)");
  rep.Note("trace.untraced_ops_per_s", untraced_ops_per_s, "1/s");
  rep.Note("trace.traced_ops_per_s", traced_ops_per_s, "1/s");
}

// Median round trip of the null proc on the server's link.
double NullCallP50Us(Cell& cell) {
  Histogram h;
  std::vector<uint8_t> empty;
  for (int i = 0; i < kNullCalls; ++i) {
    uint64_t t0 = NowNs();
    (void)cell.net.Call(kProbeNode, kServerNode, kNullProc, empty, "probe");
    h.Add(NowNs() - t0);
  }
  return h.PercentileUs(0.5);
}

// Makes every write durable, then reads it all back through a fresh client.
uint64_t FinishAndVerify(Instance& in, std::string* detail) {
  uint64_t bad = 0;
  for (auto& d : in.drivers) {
    dfs::Status st = d->Finish();
    if (!st.ok()) {
      *detail += "final sync: " + st.ToString() + "\n";
    }
  }
  CacheManager* fresh = in.cell->NewClient();
  if (fresh == nullptr) {
    *detail += "fresh client creation failed\n";
    return 1;
  }
  bad += in.workload->Verify(fresh, detail);
  return bad;
}

void PrintWindows(const ClientResult& m, double window_s) {
  std::printf("  successful ops per %.2f s window:", window_s);
  for (uint64_t ok : m.ok_per_window) {
    std::printf(" %llu", static_cast<unsigned long long>(ok));
  }
  std::printf("\n");
}

void PrintFailures(const ClientResult& m) {
  for (const auto& [what, n] : m.errors) {
    std::printf("  failed %8llu x %s\n", static_cast<unsigned long long>(n), what.c_str());
  }
}

int Main(int argc, char** argv) {
  // Fixed allocator thresholds. By default glibc raises its mmap threshold as
  // large blocks are freed, so partway through a run the simulated disks
  // (16-64 MiB each) switch from fresh, faulting mmap pages to reused heap,
  // and setup_s flips between the two regimes. With fixed thresholds every
  // set-up after the first reuses the memory its predecessor freed.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dfs_perfbench --workload hot_read|stream|shared_write --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  std::string error;
  Report rep;
  ClientResult result;
  uint64_t mismatches = 0;
  std::string detail;

  // The untraced measurement (both modes), after the same kSetups set-ups so
  // the process is equally warm. A traced run splits its time between the
  // untraced and the traced cell.
  double seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> setup_s;
  std::unique_ptr<Instance> in;
  for (int i = 0; i < kSetups; ++i) {
    in.reset();
    uint64_t t0 = NowNs();
    in = SetUp(args, /*traced=*/false, &error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (in == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  Counters before, after;
  Phase phase = Measure(*in, seconds, &before, &after);
  ClientResult untraced = phase.Merged();
  mismatches += untraced.mismatches + FinishAndVerify(*in, &detail);
  std::printf("workload %s seed %llu: %d clients, %.1f s measured after %.1f s warm-up\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              in->workload->clients(), phase.elapsed_s, WarmupSeconds(seconds));

  if (!args.trace) {
    result = untraced;
    AddEndToEnd(rep, untraced, phase, before, after);
    rep.Add("setup_s", Median(setup_s), "s", Base("set-ups", kSetups));
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    rep.Print("end-to-end (untraced):");
  } else {
    in.reset();
    in = SetUp(args, /*traced=*/true, &error);
    if (in == nullptr) {
      std::fprintf(stderr, "traced set-up failed: %s\n", error.c_str());
      return 1;
    }
    Phase tphase = Measure(*in, seconds, &before, &after);
    result = tphase.Merged();
    double null_p50 = NullCallP50Us(*in->cell);
    AddPerLayer(rep, result, before, after, null_p50, OpsPerSecond(untraced, phase),
                OpsPerSecond(result, tphase));
    mismatches += result.mismatches + FinishAndVerify(*in, &detail);
    rep.Print("per layer (traced):");
  }
  PrintWindows(result, seconds / kWindows);
  PrintFailures(result);
  if (!detail.empty()) {
    std::printf("verification:\n%s", detail.c_str());
  }
  bool correct = mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), rep.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
