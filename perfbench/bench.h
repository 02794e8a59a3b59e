// Shared pieces of the repository benchmark (see run.py for how it is run):
// latency histograms, the outside-in tracer and its timing decorators, the
// cell (VLDB + one Episode-backed file server + client cache managers), and
// the workload interface.
//
// Nothing here changes program code. Per-layer time is taken only at public
// boundaries: a BlockDevice decorator under Episode, a Vfs/Vnode decorator
// between the file server and Episode, and forwarding RpcHandlers registered
// under the server's and clients' node ids.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/client/cache_manager.h"
#include "src/episode/aggregate.h"
#include "src/recovery/sim_clock.h"
#include "src/rpc/auth.h"
#include "src/rpc/rpc.h"
#include "src/server/file_server.h"
#include "src/server/vldb.h"

namespace perfbench {

uint64_t NowNs();
uint64_t Mix(uint64_t a, uint64_t b);

// Log-linear latency histogram over nanoseconds: exact below 128 ns, then 128
// sub-buckets per power of two (under 0.8% bucket width). Percentiles are
// interpolated by rank inside the bucket.
class Histogram {
 public:
  Histogram();
  void Add(uint64_t ns);
  void Merge(const Histogram& other);
  void Subtract(const Histogram& earlier);
  uint64_t count() const { return count_; }
  // q in (0, 1]; 0 when empty.
  double PercentileUs(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// --- Outside-in tracing ---------------------------------------------------

// Totals for one kind of span. child_ns is the time of spans that ran nested
// on the same thread; cross-thread nesting (an RPC) is resolved in main.cc.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t child_ns = 0;
};

class LayerStats {
 public:
  void Record(uint64_t ns, uint64_t child_ns) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    child_ns_.fetch_add(child_ns, std::memory_order_relaxed);
  }
  LayerTotals Snapshot() const {
    return {calls_.load(), total_ns_.load(), child_ns_.load()};
  }

 private:
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> child_ns_{0};
};

// The span layers. kServerRev are server handles of revocation-path procs
// issued while the calling client was handling a revocation; every other
// server handle is kServer.
enum class Layer { kServer, kServerRev, kClientRevoke, kEpisode, kBlockdev, kCount };

struct TraceSnapshot {
  LayerTotals layer[static_cast<int>(Layer::kCount)];
  Histogram server_handle;
  const LayerTotals& operator[](Layer l) const { return layer[static_cast<int>(l)]; }
};

class Tracer {
 public:
  LayerStats& layer(Layer l) { return layers_[static_cast<int>(l)]; }
  void RecordServerHandle(uint64_t ns);
  TraceSnapshot Snapshot();

  // Per-client "inside a revocation handler" depth, indexed by node id.
  std::atomic<int>& revoking(dfs::NodeId node) { return revoking_[node % kMaxNodes]; }

 private:
  static constexpr size_t kMaxNodes = 256;
  LayerStats layers_[static_cast<int>(Layer::kCount)];
  std::mutex hist_mu_;
  Histogram server_handle_;
  std::atomic<int> revoking_[kMaxNodes] = {};
};

// RAII span: charges its duration to a layer and to the enclosing span on the
// same thread as child time.
class ScopedSpan {
 public:
  explicit ScopedSpan(LayerStats& layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  // Duration so far; used by the server span to feed the handle histogram.
  uint64_t elapsed_ns() const { return NowNs() - start_; }

 private:
  LayerStats& layer_;
  uint64_t* parent_;
  uint64_t child_ns_ = 0;
  uint64_t start_;
};

// A proc answered by the server-side forwarder itself: the null RPC that
// measures the bare link round trip.
inline constexpr uint32_t kNullProc = 0xFFFF'FFF0u;

// Times RpcHandler::Handle of the node it is registered under, then forwards
// to the real handler (set once that handler exists).
class TimingHandler : public dfs::RpcHandler {
 public:
  TimingHandler(Tracer* tracer, dfs::NodeId node, bool server)
      : tracer_(tracer), node_(node), server_(server) {}
  void set_target(dfs::RpcHandler* target) { target_.store(target); }

  dfs::Result<dfs::WireMessage> Handle(const dfs::RpcRequest& request) override;
  bool IsRevocationPathProc(uint32_t proc) const override {
    dfs::RpcHandler* t = target_.load();
    return t != nullptr && t->IsRevocationPathProc(proc);
  }

 private:
  Tracer* tracer_;
  dfs::NodeId node_;
  bool server_;
  std::atomic<dfs::RpcHandler*> target_{nullptr};
};

// Times every block I/O of the server's disk.
class TimedDevice : public dfs::BlockDevice {
 public:
  TimedDevice(dfs::BlockDevice& inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}
  dfs::Status Read(uint64_t blockno, std::span<uint8_t> out) override;
  dfs::Status Write(uint64_t blockno, std::span<const uint8_t> data) override;
  dfs::Status Flush() override;
  uint64_t BlockCount() const override { return inner_.BlockCount(); }

 private:
  dfs::BlockDevice& inner_;
  Tracer* tracer_;
};

// Wraps an exported volume so every call the file server makes into Episode
// is a span.
dfs::VfsRef WrapVfs(dfs::VfsRef inner, Tracer* tracer);

// --- The cell ---------------------------------------------------------------

inline constexpr dfs::NodeId kVldbNode = 1;
inline constexpr dfs::NodeId kServerNode = 10;
inline constexpr dfs::NodeId kProbeNode = 50;
inline constexpr dfs::NodeId kFirstClientNode = 100;
inline constexpr uint32_t kUid = 100;

struct CellOptions {
  uint64_t disk_blocks = 16384;
  // One-way propagation delay of the server's link, paid on each leg.
  uint64_t server_latency_us = 0;
};

// One DFS cell. Member order is destruction order reversed: clients go
// before their forwarders, the server before its forwarder and its disk.
class Cell {
 public:
  // tracer == nullptr builds the untraced cell: no decorator anywhere.
  static std::unique_ptr<Cell> Create(const CellOptions& options, Tracer* tracer,
                                      std::string* error);

  // A client with default CacheManager::Options (only its node id is set).
  dfs::CacheManager* NewClient();

  dfs::VirtualClock clock;
  dfs::SimClock sim_clock{&clock};
  dfs::Network net{&clock};
  dfs::AuthService auth;
  Tracer* tracer = nullptr;
  std::unique_ptr<dfs::VldbServer> vldb;
  std::unique_ptr<dfs::SimDisk> disk;
  std::unique_ptr<TimedDevice> timed_disk;
  std::unique_ptr<dfs::Aggregate> agg;
  uint64_t volume_id = 0;
  // Server-local view of the volume, used only to lay down set-up data.
  dfs::VfsRef admin;
  std::unique_ptr<TimingHandler> server_forwarder;
  std::unique_ptr<dfs::FileServer> server;
  std::vector<std::unique_ptr<TimingHandler>> client_forwarders;
  std::vector<std::unique_ptr<dfs::CacheManager>> clients;

 private:
  Cell() = default;
};

// --- Workloads --------------------------------------------------------------

enum OpClass { kRead = 0, kWrite = 1, kFsync = 2, kMeta = 3, kOpClasses = 4 };

// What one load-generator thread measured in one phase.
struct ClientResult {
  Histogram hist[kOpClasses];  // latencies of successful ops
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t op_ns = 0;          // summed duration of every op, failed ones too
  uint64_t read_bytes = 0;     // verified payload bytes read
  uint64_t written_bytes = 0;  // payload bytes of successful writes
  uint64_t durable_bytes = 0;  // written bytes a successful fsync covered
  std::map<std::string, uint64_t> errors;  // failures, by message
  // Successful ops per window of window_ns from t0_ns, for the report.
  std::vector<uint64_t> ok_per_window;
  uint64_t t0_ns = 0;
  uint64_t window_ns = 1;

  // Records one op timed [start, end). good=false counts it as failed; a
  // mismatch is a failed op whose call succeeded but returned wrong bytes.
  // `bytes` is the payload a successful op moved: verified bytes for a
  // read, bytes written for a write, bytes made durable for an fsync.
  void Record(OpClass c, uint64_t start, uint64_t end, bool good, uint64_t bytes = 0,
              bool mismatch = false);
  void NoteError(const std::string& what);
};

// Drives one client in a closed loop: Step issues the next few ops (one
// file-level step) and returns once all have completed.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual void Step(ClientResult& r) = 0;
  // Untimed: makes every write durable before verification.
  virtual dfs::Status Finish() = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  virtual CellOptions cell_options() const = 0;
  // Lays down the data set through the server-local view.
  virtual dfs::Status Populate(Cell& cell) = 0;
  // Mounts, resolves and warms one client; index is 0-based.
  virtual dfs::Result<std::unique_ptr<Driver>> MakeDriver(dfs::CacheManager* cm, int index) = 0;
  // With nothing else running, reads back every file the run wrote through a
  // fresh client and checks it against the model. Returns mismatching records.
  virtual uint64_t Verify(dfs::CacheManager* fresh, std::string* detail) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
