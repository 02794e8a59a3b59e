#include <bit>
#include <chrono>

#include "perfbench/bench.h"

namespace perfbench {

using dfs::Result;
using dfs::Status;
using dfs::VnodeRef;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Histogram --------------------------------------------------------------

namespace {

constexpr int kSubBits = 7;
constexpr uint64_t kSub = 1ull << kSubBits;
constexpr size_t kBuckets = kSub * 40;

size_t BucketOf(uint64_t ns) {
  if (ns < kSub) {
    return ns;
  }
  int shift = std::bit_width(ns) - 1 - kSubBits;
  size_t idx = kSub * (shift + 1) + ((ns >> shift) - kSub);
  return idx < kBuckets ? idx : kBuckets - 1;
}

// Lower bound and width of a bucket, in ns.
std::pair<double, double> BucketRange(size_t idx) {
  if (idx < kSub) {
    return {static_cast<double>(idx), 1.0};
  }
  int shift = static_cast<int>(idx / kSub) - 1;
  uint64_t sub = idx % kSub;
  return {static_cast<double>((kSub + sub) << shift), static_cast<double>(1ull << shift)};
}

}  // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

void Histogram::Add(uint64_t ns) {
  buckets_[BucketOf(ns)] += 1;
  count_ += 1;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

void Histogram::Subtract(const Histogram& earlier) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] -= earlier.buckets_[i];
  }
  count_ -= earlier.count_;
}

double Histogram::PercentileUs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  double target = q * static_cast<double>(count_);
  double seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    double c = static_cast<double>(buckets_[i]);
    if (seen + c >= target) {
      auto [lo, width] = BucketRange(i);
      double frac = (target - seen) / c;
      return (lo + frac * width) / 1000.0;
    }
    seen += c;
  }
  auto [lo, width] = BucketRange(kBuckets - 1);
  return (lo + width) / 1000.0;
}

// --- Tracing ----------------------------------------------------------------

namespace {
thread_local uint64_t* t_child_acc = nullptr;
}  // namespace

ScopedSpan::ScopedSpan(LayerStats& layer)
    : layer_(layer), parent_(t_child_acc), start_(NowNs()) {
  t_child_acc = &child_ns_;
}

ScopedSpan::~ScopedSpan() {
  uint64_t d = NowNs() - start_;
  t_child_acc = parent_;
  if (parent_ != nullptr) {
    *parent_ += d;
  }
  layer_.Record(d, child_ns_);
}

void Tracer::RecordServerHandle(uint64_t ns) {
  std::lock_guard<std::mutex> lock(hist_mu_);
  server_handle_.Add(ns);
}

TraceSnapshot Tracer::Snapshot() {
  TraceSnapshot s;
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    s.layer[i] = layers_[i].Snapshot();
  }
  std::lock_guard<std::mutex> lock(hist_mu_);
  s.server_handle = server_handle_;
  return s;
}

Result<dfs::WireMessage> TimingHandler::Handle(const dfs::RpcRequest& request) {
  dfs::RpcHandler* target = target_.load();
  if (server_ && request.proc == kNullProc) {
    return dfs::WireMessage();
  }
  if (target == nullptr) {
    return Status(dfs::ErrorCode::kUnavailable, "node not attached yet");
  }
  if (!server_) {
    // A server-to-client call: a token revocation being handled.
    std::atomic<int>& depth = tracer_->revoking(node_);
    depth.fetch_add(1);
    Result<dfs::WireMessage> reply = [&] {
      ScopedSpan span(tracer_->layer(Layer::kClientRevoke));
      return target->Handle(request);
    }();
    depth.fetch_sub(1);
    return reply;
  }
  bool from_revocation = target->IsRevocationPathProc(request.proc) &&
                         tracer_->revoking(request.from).load() > 0;
  ScopedSpan span(tracer_->layer(from_revocation ? Layer::kServerRev : Layer::kServer));
  Result<dfs::WireMessage> reply = target->Handle(request);
  tracer_->RecordServerHandle(span.elapsed_ns());
  return reply;
}

Status TimedDevice::Read(uint64_t blockno, std::span<uint8_t> out) {
  ScopedSpan span(tracer_->layer(Layer::kBlockdev));
  return inner_.Read(blockno, out);
}

Status TimedDevice::Write(uint64_t blockno, std::span<const uint8_t> data) {
  ScopedSpan span(tracer_->layer(Layer::kBlockdev));
  return inner_.Write(blockno, data);
}

Status TimedDevice::Flush() {
  ScopedSpan span(tracer_->layer(Layer::kBlockdev));
  return inner_.Flush();
}

// --- Vfs/Vnode decorator ----------------------------------------------------

namespace {

class TimedVnode : public dfs::Vnode {
 public:
  TimedVnode(VnodeRef inner, Tracer* tracer) : inner_(std::move(inner)), tracer_(tracer) {}

  // Episode downcasts Link/Rename arguments to its own vnode type.
  static dfs::Vnode& Unwrap(dfs::Vnode& v) {
    auto* timed = dynamic_cast<TimedVnode*>(&v);
    return timed != nullptr ? *timed->inner_ : v;
  }

  dfs::Fid fid() const override { return inner_->fid(); }
  Result<dfs::FileAttr> GetAttr() override {
    ScopedSpan s(Span());
    return inner_->GetAttr();
  }
  Status SetAttr(const dfs::AttrUpdate& update) override {
    ScopedSpan s(Span());
    return inner_->SetAttr(update);
  }
  Result<size_t> Read(uint64_t offset, std::span<uint8_t> out) override {
    ScopedSpan s(Span());
    return inner_->Read(offset, out);
  }
  Result<size_t> Write(uint64_t offset, std::span<const uint8_t> data) override {
    ScopedSpan s(Span());
    return inner_->Write(offset, data);
  }
  Result<std::vector<dfs::BufferSlice>> ReadSlices(uint64_t offset, size_t len) override {
    ScopedSpan s(Span());
    return inner_->ReadSlices(offset, len);
  }
  Status Truncate(uint64_t new_size) override {
    ScopedSpan s(Span());
    return inner_->Truncate(new_size);
  }
  Result<VnodeRef> Lookup(std::string_view name) override {
    ScopedSpan s(Span());
    return Wrap(inner_->Lookup(name));
  }
  Result<VnodeRef> Create(std::string_view name, dfs::FileType type, uint32_t mode,
                          const dfs::Cred& cred) override {
    ScopedSpan s(Span());
    return Wrap(inner_->Create(name, type, mode, cred));
  }
  Result<VnodeRef> CreateSymlink(std::string_view name, std::string_view target,
                                 const dfs::Cred& cred) override {
    ScopedSpan s(Span());
    return Wrap(inner_->CreateSymlink(name, target, cred));
  }
  Status Link(std::string_view name, dfs::Vnode& target) override {
    ScopedSpan s(Span());
    return inner_->Link(name, Unwrap(target));
  }
  Status Unlink(std::string_view name) override {
    ScopedSpan s(Span());
    return inner_->Unlink(name);
  }
  Status Rmdir(std::string_view name) override {
    ScopedSpan s(Span());
    return inner_->Rmdir(name);
  }
  Result<std::vector<dfs::DirEntry>> ReadDir() override {
    ScopedSpan s(Span());
    return inner_->ReadDir();
  }
  Result<std::string> ReadSymlink() override {
    ScopedSpan s(Span());
    return inner_->ReadSymlink();
  }
  Result<dfs::Acl> GetAcl() override {
    ScopedSpan s(Span());
    return inner_->GetAcl();
  }
  Status SetAcl(const dfs::Acl& acl) override {
    ScopedSpan s(Span());
    return inner_->SetAcl(acl);
  }

 private:
  LayerStats& Span() { return tracer_->layer(Layer::kEpisode); }
  Result<VnodeRef> Wrap(Result<VnodeRef> v) {
    if (!v.ok()) {
      return v;
    }
    return VnodeRef(std::make_shared<TimedVnode>(*v, tracer_));
  }

  VnodeRef inner_;
  Tracer* tracer_;
};

class TimedVfs : public dfs::Vfs {
 public:
  TimedVfs(dfs::VfsRef inner, Tracer* tracer) : inner_(std::move(inner)), tracer_(tracer) {}

  Result<VnodeRef> Root() override {
    ScopedSpan s(tracer_->layer(Layer::kEpisode));
    return Wrap(inner_->Root());
  }
  Result<VnodeRef> VnodeByFid(const dfs::Fid& fid) override {
    ScopedSpan s(tracer_->layer(Layer::kEpisode));
    return Wrap(inner_->VnodeByFid(fid));
  }
  Status Rename(dfs::Vnode& src_dir, std::string_view src_name, dfs::Vnode& dst_dir,
                std::string_view dst_name) override {
    ScopedSpan s(tracer_->layer(Layer::kEpisode));
    return inner_->Rename(TimedVnode::Unwrap(src_dir), src_name, TimedVnode::Unwrap(dst_dir),
                          dst_name);
  }
  Status Sync() override {
    ScopedSpan s(tracer_->layer(Layer::kEpisode));
    return inner_->Sync();
  }
  bool ReadOnly() const override { return inner_->ReadOnly(); }
  Result<VnodeRef> ResolveMountPoint(std::string_view target) override {
    ScopedSpan s(tracer_->layer(Layer::kEpisode));
    return Wrap(inner_->ResolveMountPoint(target));
  }

 private:
  Result<VnodeRef> Wrap(Result<VnodeRef> v) {
    if (!v.ok()) {
      return v;
    }
    return VnodeRef(std::make_shared<TimedVnode>(*v, tracer_));
  }

  dfs::VfsRef inner_;
  Tracer* tracer_;
};

}  // namespace

dfs::VfsRef WrapVfs(dfs::VfsRef inner, Tracer* tracer) {
  return std::make_shared<TimedVfs>(std::move(inner), tracer);
}

// --- Cell -------------------------------------------------------------------

namespace {
constexpr uint64_t kSecret = 0xBEEF;
}  // namespace

std::unique_ptr<Cell> Cell::Create(const CellOptions& options, Tracer* tracer,
                                   std::string* error) {
  std::unique_ptr<Cell> cell(new Cell());
  cell->tracer = tracer;
  cell->auth.AddPrincipal("alice", kUid, kSecret);
  cell->vldb = std::make_unique<dfs::VldbServer>(cell->net, kVldbNode);

  cell->disk = std::make_unique<dfs::SimDisk>(options.disk_blocks);
  dfs::BlockDevice* dev = cell->disk.get();
  if (tracer != nullptr) {
    cell->timed_disk = std::make_unique<TimedDevice>(*cell->disk, tracer);
    dev = cell->timed_disk.get();
  }
  dfs::Aggregate::Options aopts;
  aopts.wal.clock = &cell->clock;
  auto agg = dfs::Aggregate::Format(*dev, aopts);
  if (!agg.ok()) {
    *error = "format: " + agg.status().ToString();
    return nullptr;
  }
  cell->agg = std::move(*agg);
  auto vid = cell->agg->CreateVolume("home");
  if (!vid.ok()) {
    *error = "create volume: " + vid.status().ToString();
    return nullptr;
  }
  cell->volume_id = *vid;
  auto admin = cell->agg->MountVolume(*vid);
  auto exported = cell->agg->MountVolume(*vid);
  if (!admin.ok() || !exported.ok()) {
    *error = "mount volume failed";
    return nullptr;
  }
  cell->admin = *admin;

  dfs::FileServer::Options sopts;
  sopts.recovery.clock = &cell->sim_clock;
  sopts.rpc.sim_latency_us = options.server_latency_us;
  dfs::VfsRef export_vfs = *exported;
  if (tracer != nullptr) {
    // Registered first, under the server's id and with its options: the
    // server's own registration then finds the id taken, and every call to
    // the server passes through the forwarder.
    cell->server_forwarder = std::make_unique<TimingHandler>(tracer, kServerNode, /*server=*/true);
    Status reg = cell->net.RegisterNode(kServerNode, cell->server_forwarder.get(), sopts.rpc);
    if (!reg.ok()) {
      *error = "register server forwarder: " + reg.ToString();
      return nullptr;
    }
    export_vfs = WrapVfs(export_vfs, tracer);
  }
  cell->server = std::make_unique<dfs::FileServer>(cell->net, cell->auth, kServerNode, sopts);
  if (cell->server_forwarder != nullptr) {
    cell->server_forwarder->set_target(cell->server.get());
  }
  Status exp = cell->server->ExportVolume(*vid, export_vfs);
  if (!exp.ok()) {
    *error = "export: " + exp.ToString();
    return nullptr;
  }
  dfs::VldbClient registrar(cell->net, kServerNode, {kVldbNode});
  Status reg = registrar.Register(*vid, "home", kServerNode, cell->server->epoch());
  if (!reg.ok()) {
    *error = "vldb register: " + reg.ToString();
    return nullptr;
  }
  return cell;
}

dfs::CacheManager* Cell::NewClient() {
  dfs::CacheManager::Options options;
  options.node = kFirstClientNode + static_cast<dfs::NodeId>(clients.size());
  auto ticket = auth.IssueTicket("alice", kSecret);
  if (!ticket.ok()) {
    return nullptr;
  }
  TimingHandler* forwarder = nullptr;
  if (tracer != nullptr) {
    client_forwarders.push_back(
        std::make_unique<TimingHandler>(tracer, options.node, /*server=*/false));
    forwarder = client_forwarders.back().get();
    if (!net.RegisterNode(options.node, forwarder, options.rpc).ok()) {
      return nullptr;
    }
  }
  clients.push_back(std::make_unique<dfs::CacheManager>(
      net, std::vector<dfs::NodeId>{kVldbNode}, *ticket, options));
  if (forwarder != nullptr) {
    forwarder->set_target(clients.back().get());
  }
  return clients.back().get();
}

}  // namespace perfbench
