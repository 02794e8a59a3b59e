// The three workloads. Each is a closed loop: one load-generator thread per
// client issues its next op only after the previous one returned. Every byte
// a Read returns is checked, and every write is a whole stamped record, so a
// torn, misplaced or stale record is detected both during the run and in the
// read-back after it.
#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "perfbench/bench.h"
#include "src/common/rng.h"
#include "src/vfs/path.h"

namespace perfbench {

using dfs::CacheManager;
using dfs::Result;
using dfs::Status;
using dfs::VnodeRef;

void ClientResult::Record(OpClass c, uint64_t start, uint64_t end, bool good, uint64_t bytes,
                          bool mismatch) {
  attempted += 1;
  op_ns += end - start;
  if (!good) {
    failed += 1;
    mismatches += mismatch ? 1 : 0;
    return;
  }
  ok += 1;
  hist[c].Add(end - start);
  read_bytes += c == kRead ? bytes : 0;
  written_bytes += c == kWrite ? bytes : 0;
  durable_bytes += c == kFsync ? bytes : 0;
  uint64_t w = (end - t0_ns) / window_ns;
  if (end >= t0_ns && w < ok_per_window.size()) {
    ok_per_window[w] += 1;
  }
}

void ClientResult::NoteError(const std::string& what) { errors[what] += 1; }

namespace {

// --- Stamped records ----------------------------------------------------------
//
// A record is a run of 64-bit words: word 0 names its place (file, index) and
// its writer, word 1 the writer's sequence number, and every later word is
// derived from both, so any mix of two writes fails the check.

struct Stamp {
  uint32_t writer = 0;  // 0 = set-up data
  uint64_t seq = 0;
  bool operator==(const Stamp&) const = default;
};

constexpr uint64_t kWordStep = 0x9E3779B97F4A7C15ull;

uint64_t PlaceWord(uint32_t file, uint32_t index, uint32_t writer) {
  return (uint64_t{file} << 40) | (uint64_t{index & 0xFFFFF} << 20) | (writer & 0xFFFFF);
}

void FillRecord(std::span<uint8_t> out, uint64_t salt, uint32_t file, uint32_t index, Stamp s) {
  uint64_t w0 = PlaceWord(file, index, s.writer);
  uint64_t base = Mix(salt ^ w0, s.seq);
  size_t words = out.size() / 8;
  std::memcpy(out.data(), &w0, 8);
  std::memcpy(out.data() + 8, &s.seq, 8);
  for (size_t i = 2; i < words; ++i) {
    uint64_t v = base + i * kWordStep;
    std::memcpy(out.data() + i * 8, &v, 8);
  }
}

// False unless `in` is a well-formed record for (file, index).
bool ParseRecord(std::span<const uint8_t> in, uint64_t salt, uint32_t file, uint32_t index,
                 Stamp* s) {
  uint64_t w0 = 0;
  std::memcpy(&w0, in.data(), 8);
  std::memcpy(&s->seq, in.data() + 8, 8);
  s->writer = static_cast<uint32_t>(w0 & 0xFFFFF);
  if (w0 != PlaceWord(file, index, s->writer)) {
    return false;
  }
  uint64_t base = Mix(salt ^ w0, s->seq);
  size_t words = in.size() / 8;
  for (size_t i = 2; i < words; ++i) {
    uint64_t v = 0;
    std::memcpy(&v, in.data() + i * 8, 8);
    if (v != base + i * kWordStep) {
      return false;
    }
  }
  return true;
}

// Checks a buffer of consecutive records that hold set-up data.
bool IsSetupData(std::span<const uint8_t> in, size_t record, uint64_t salt, uint32_t file,
                 uint32_t first_index) {
  for (size_t off = 0, i = 0; off < in.size(); off += record, ++i) {
    Stamp s;
    if (!ParseRecord(in.subspan(off, record), salt, file, first_index + i, &s) || s != Stamp{}) {
      return false;
    }
  }
  return true;
}

Status WriteSetupFile(dfs::Vfs& vfs, const std::string& path, uint64_t salt, uint32_t file,
                      size_t bytes, size_t record) {
  dfs::Cred cred{kUid, {kUid}};
  ASSIGN_OR_RETURN(VnodeRef v, dfs::CreateFileAt(vfs, path, 0666, cred));
  std::vector<uint8_t> data(bytes);
  for (size_t off = 0, i = 0; off < bytes; off += record, ++i) {
    FillRecord(std::span<uint8_t>(data).subspan(off, record), salt, file,
               static_cast<uint32_t>(i), Stamp{});
  }
  ASSIGN_OR_RETURN(size_t n, v->Write(0, data));
  if (n != bytes) {
    return Status(dfs::ErrorCode::kIoError, "short set-up write");
  }
  return Status::Ok();
}

Status MakeDir(dfs::Vfs& vfs, const std::string& path) {
  return dfs::MkdirAt(vfs, path, 0777, dfs::Cred{kUid, {kUid}}).status();
}

std::string Name(const std::string& dir, const char* prefix, int i) {
  return dir + "/" + prefix + std::to_string(i);
}

// --- Models of what the server must hold --------------------------------------

// A file only one client writes. Per record: the stamps the client's cache
// may hold (pending) and the stamps the server may hold (durable). A failed
// write may or may not have landed, so it widens the set instead of
// replacing it.
class OwnedFile {
 public:
  explicit OwnedFile(size_t records) : pending_(records, {Stamp{}}), durable_(records, {Stamp{}}) {}

  void Wrote(size_t first, size_t n, Stamp s, bool ok, size_t bytes) {
    for (size_t r = first; r < first + n; ++r) {
      if (ok) {
        pending_[r] = {s};
      } else {
        pending_[r].push_back(s);
      }
    }
    pending_bytes_ += ok ? bytes : 0;
  }
  // Returns the bytes of successful writes this fsync made durable.
  uint64_t Synced(bool ok) {
    if (ok) {
      durable_ = pending_;
      return std::exchange(pending_bytes_, 0);
    }
    for (size_t r = 0; r < durable_.size(); ++r) {
      for (const Stamp& s : pending_[r]) {
        if (std::find(durable_[r].begin(), durable_[r].end(), s) == durable_[r].end()) {
          durable_[r].push_back(s);
        }
      }
    }
    return 0;
  }
  bool Durable(size_t r, Stamp s) const {
    return std::find(durable_[r].begin(), durable_[r].end(), s) != durable_[r].end();
  }

 private:
  std::vector<std::vector<Stamp>> pending_;
  std::vector<std::vector<Stamp>> durable_;
  uint64_t pending_bytes_ = 0;
};

// Times an Fsync of a file one client owns and folds the outcome into its
// model. r is null for the untimed final sync.
Status SyncOwned(CacheManager* cm, const VnodeRef& file, OwnedFile& model, ClientResult* r) {
  uint64_t t0 = NowNs();
  Status st = cm->Fsync(file->fid());
  uint64_t t1 = NowNs();
  uint64_t durable = model.Synced(st.ok());
  if (r != nullptr) {
    r->Record(kFsync, t0, t1, st.ok(), durable);
    if (!st.ok()) {
      r->NoteError("fsync: " + st.ToString());
    }
  }
  return st;
}

// Times ResolvePath+GetAttr as one meta op. Returns the vnode when the file
// has the expected size, else null.
VnodeRef TimedOpen(dfs::Vfs& vfs, const std::string& path, uint64_t size, ClientResult& r) {
  uint64_t t0 = NowNs();
  auto v = dfs::ResolvePath(vfs, path);
  Result<dfs::FileAttr> attr = v.ok() ? (*v)->GetAttr() : Result<dfs::FileAttr>(v.status());
  uint64_t t1 = NowNs();
  bool good = attr.ok() && attr->size == size;
  r.Record(kMeta, t0, t1, good, 0, attr.ok() && !good);
  if (!good) {
    r.NoteError(attr.ok() ? "open: wrong size" : "open: " + attr.status().ToString());
    return nullptr;
  }
  return *v;
}

// Records every client writes. A write is confirmed when its fsync returned
// OK. After the run a record may hold any write W unless some confirmed write
// started after W was confirmed (set-up data counts as confirmed at time 0).
class SharedRecords {
 public:
  SharedRecords(size_t records, int writers) : events_(records), issued_(writers + 1) {}

  struct Event {
    Stamp stamp;
    uint64_t start = 0;
    uint64_t confirmed = UINT64_MAX;
  };

  size_t Begin(size_t record, Stamp s, uint64_t start) {
    issued_[s.writer].store(s.seq);
    std::lock_guard<std::mutex> lock(mu_);
    events_[record].push_back(Event{s, start});
    return events_[record].size() - 1;
  }
  void Confirm(size_t record, size_t event, uint64_t at) {
    std::lock_guard<std::mutex> lock(mu_);
    events_[record][event].confirmed = at;
  }
  // During the run: the stamp names a write that has been issued.
  bool Plausible(Stamp s) const {
    if (s.writer == 0) {
      return s.seq == 0;
    }
    return s.writer < issued_.size() && s.seq <= issued_[s.writer].load();
  }
  bool FinalOk(size_t record, Stamp s) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<Event>& ev = events_[record];
    uint64_t confirmed = 0;  // set-up data
    if (s.writer != 0) {
      auto it = std::find_if(ev.begin(), ev.end(), [&](const Event& e) { return e.stamp == s; });
      if (it == ev.end()) {
        return false;
      }
      confirmed = it->confirmed;
    } else if (s.seq != 0) {
      return false;
    }
    return std::none_of(ev.begin(), ev.end(), [&](const Event& e) {
      return e.stamp != s && e.confirmed != UINT64_MAX && e.start > confirmed;
    });
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<Event>> events_;
  std::vector<std::atomic<uint64_t>> issued_;
};

// Reads [0, bytes) of `path` through `cm` and counts records failing `ok`.
template <typename Check>
uint64_t ReadBack(CacheManager* cm, const std::string& path, size_t bytes, size_t record,
                  Check ok, std::string* detail) {
  auto vfs = cm->MountVolume("home");
  if (!vfs.ok()) {
    *detail += "read-back mount failed: " + vfs.status().ToString() + "\n";
    return 1;
  }
  auto v = dfs::ResolvePath(**vfs, path);
  if (!v.ok()) {
    *detail += path + ": " + v.status().ToString() + "\n";
    return 1;
  }
  std::vector<uint8_t> buf(bytes);
  constexpr size_t kChunk = 64 * 1024;
  for (size_t off = 0; off < bytes; off += kChunk) {
    size_t len = std::min(kChunk, bytes - off);
    auto n = (*v)->Read(off, std::span<uint8_t>(buf).subspan(off, len));
    if (!n.ok() || *n != len) {
      *detail += path + ": read-back failed\n";
      return 1;
    }
  }
  uint64_t bad = 0;
  for (size_t off = 0, i = 0; off < bytes; off += record, ++i) {
    if (!ok(i, std::span<const uint8_t>(buf).subspan(off, record))) {
      bad += 1;
    }
  }
  if (bad > 0) {
    *detail += path + ": " + std::to_string(bad) + " records do not match\n";
  }
  return bad;
}

// --- hot_read -------------------------------------------------------------------
//
// The paper's common case: a working set that fits every client's cache, read
// under tokens the clients keep, so nearly every op is served locally.
// 64 shared files of 64 KiB (4 MiB, inside the default 16 MiB cache
// partition), warmed during set-up. Mix per op: 90% 4 KiB Read at a uniform
// random block, 5% ResolvePath+GetAttr, 5% 512 B Write to the client's private
// file; every tenth private write is followed by an Fsync, so fsync latency
// and the rare server round trip exist on this workload too. Two clients: with
// four, load threads and server workers oversubscribe a 4-core machine and
// ops_per_s spread 14% across runs (2% with two).

constexpr int kHotFiles = 64;
constexpr size_t kHotFileBytes = 64 * 1024;
constexpr size_t kHotRead = 4096;
constexpr size_t kHotPrivBytes = 32 * 1024;
constexpr size_t kHotPrivRecord = 512;
constexpr int kHotFsyncEvery = 10;
constexpr uint32_t kPrivFileBase = 1000;

class HotRead : public Workload {
 public:
  explicit HotRead(uint64_t seed) : seed_(seed) {}
  int clients() const override { return 2; }
  CellOptions cell_options() const override { return CellOptions{}; }

  Status Populate(Cell& cell) override {
    dfs::Vfs& vfs = *cell.admin;
    RETURN_IF_ERROR(MakeDir(vfs, "/hot"));
    for (int f = 0; f < kHotFiles; ++f) {
      RETURN_IF_ERROR(
          WriteSetupFile(vfs, Name("/hot", "f", f), seed_, f, kHotFileBytes, kHotRead));
    }
    for (int c = 0; c < clients(); ++c) {
      RETURN_IF_ERROR(WriteSetupFile(vfs, Name("/hot", "p", c), seed_, kPrivFileBase + c,
                                     kHotPrivBytes, kHotPrivRecord));
      privs_.emplace_back(kHotPrivBytes / kHotPrivRecord);
    }
    return vfs.Sync();
  }

  Result<std::unique_ptr<Driver>> MakeDriver(CacheManager* cm, int index) override;

  uint64_t Verify(CacheManager* fresh, std::string* detail) override {
    uint64_t bad = 0;
    for (int c = 0; c < clients(); ++c) {
      const OwnedFile& model = privs_[c];
      bad += ReadBack(
          fresh, Name("/hot", "p", c), kHotPrivBytes, kHotPrivRecord,
          [&](size_t i, std::span<const uint8_t> rec) {
            Stamp s;
            return ParseRecord(rec, seed_, kPrivFileBase + c, static_cast<uint32_t>(i), &s) &&
                   model.Durable(i, s);
          },
          detail);
    }
    return bad;
  }

 private:
  friend class HotReadDriver;
  uint64_t seed_;
  std::vector<OwnedFile> privs_;
};

class HotReadDriver : public Driver {
 public:
  HotReadDriver(HotRead& w, CacheManager* cm, int index)
      : w_(w), cm_(cm), index_(index), rng_(Mix(w.seed_, index + 1)), model_(w.privs_[index]) {}

  Status Init() {
    ASSIGN_OR_RETURN(vfs_, cm_->MountVolume("home"));
    std::vector<uint8_t> buf(kHotFileBytes);
    for (int f = 0; f < kHotFiles; ++f) {
      paths_.push_back(Name("/hot", "f", f));
      ASSIGN_OR_RETURN(VnodeRef v, dfs::ResolvePath(*vfs_, paths_.back()));
      ASSIGN_OR_RETURN(size_t n, v->Read(0, buf));
      if (n != kHotFileBytes || !IsSetupData(buf, kHotRead, w_.seed_, f, 0)) {
        return Status(dfs::ErrorCode::kIoError, "warm read returned wrong bytes");
      }
      files_.push_back(v);
    }
    ASSIGN_OR_RETURN(priv_, dfs::ResolvePath(*vfs_, Name("/hot", "p", index_)));
    return Status::Ok();
  }

  void Step(ClientResult& r) override {
    uint64_t roll = rng_.Below(100);
    if (roll < 90) {
      int f = static_cast<int>(rng_.Below(kHotFiles));
      uint64_t block = rng_.Below(kHotFileBytes / kHotRead);
      uint64_t t0 = NowNs();
      auto n = files_[f]->Read(block * kHotRead, std::span<uint8_t>(buf_, kHotRead));
      uint64_t t1 = NowNs();
      bool called = n.ok() && *n == kHotRead;
      bool good = called && IsSetupData(std::span<const uint8_t>(buf_, kHotRead), kHotRead,
                                        w_.seed_, f, static_cast<uint32_t>(block));
      r.Record(kRead, t0, t1, good, kHotRead, called && !good);
      if (!n.ok()) {
        r.NoteError("read: " + n.status().ToString());
      }
    } else if (roll < 95) {
      (void)TimedOpen(*vfs_, paths_[rng_.Below(kHotFiles)], kHotFileBytes, r);
    } else {
      size_t rec = rng_.Below(kHotPrivBytes / kHotPrivRecord);
      Stamp s{static_cast<uint32_t>(index_ + 1), ++seq_};
      std::span<uint8_t> data(buf_, kHotPrivRecord);
      FillRecord(data, w_.seed_, kPrivFileBase + index_, static_cast<uint32_t>(rec), s);
      uint64_t t0 = NowNs();
      auto n = priv_->Write(rec * kHotPrivRecord, data);
      uint64_t t1 = NowNs();
      bool good = n.ok() && *n == kHotPrivRecord;
      model_.Wrote(rec, 1, s, good, kHotPrivRecord);
      r.Record(kWrite, t0, t1, good, kHotPrivRecord);
      if (!good) {
        r.NoteError("write: " + n.status().ToString());
      }
      if (++writes_ % kHotFsyncEvery == 0) {
        (void)SyncOwned(cm_, priv_, model_, &r);
      }
    }
  }

  Status Finish() override { return SyncOwned(cm_, priv_, model_, nullptr); }

 private:

  HotRead& w_;
  CacheManager* cm_;
  int index_;
  dfs::Rng rng_;
  OwnedFile& model_;
  dfs::VfsRef vfs_;
  std::vector<std::string> paths_;
  std::vector<VnodeRef> files_;
  VnodeRef priv_;
  uint64_t seq_ = 0;
  uint64_t writes_ = 0;
  alignas(8) uint8_t buf_[kHotRead];
};

Result<std::unique_ptr<Driver>> HotRead::MakeDriver(CacheManager* cm, int index) {
  auto d = std::make_unique<HotReadDriver>(*this, cm, index);
  RETURN_IF_ERROR(d->Init());
  return std::unique_ptr<Driver>(std::move(d));
}

// --- stream -----------------------------------------------------------------------
//
// Bulk data over a link with propagation delay (no bandwidth term: the per-call
// bandwidth sleep lets parallel calls exceed the modelled bandwidth). 24 shared
// files of 1 MiB (24 MiB) against the default 16 MiB client cache partition.
// Per file-level step: 75% open (ResolvePath+GetAttr) and scan a random file
// in 64 KiB Reads, 25% open the client's own 1 MiB file, rewrite it in 64 KiB
// Writes and Fsync. A step stops at its first failed op.
//
// Known defect shown here, not sized away: DiskCacheStore::Erase reclaims
// nothing and the default max_cached_blocks (1 << 20) far exceeds the 4096
// block partition, so once a client's partition is full every fetch of a file
// it has not cached fails with NO_SPACE. Those count as failed ops, so this
// workload is left out of BENCHMARK.json (whose workloads must not fail any
// op) until the defect is fixed; run it by name to see the failures.
// Three clients leave a core for the server's store path.

constexpr int kStreamFiles = 24;
constexpr size_t kStreamFileBytes = 1024 * 1024;
constexpr size_t kStreamIo = 64 * 1024;
constexpr size_t kStreamRecord = 4096;
constexpr uint64_t kStreamLatencyUs = 300;

class Stream : public Workload {
 public:
  explicit Stream(uint64_t seed) : seed_(seed) {}
  int clients() const override { return 3; }
  CellOptions cell_options() const override {
    CellOptions o;
    o.disk_blocks = 32768;
    o.server_latency_us = kStreamLatencyUs;
    return o;
  }

  Status Populate(Cell& cell) override {
    dfs::Vfs& vfs = *cell.admin;
    RETURN_IF_ERROR(MakeDir(vfs, "/st"));
    for (int f = 0; f < kStreamFiles; ++f) {
      RETURN_IF_ERROR(
          WriteSetupFile(vfs, Name("/st", "f", f), seed_, f, kStreamFileBytes, kStreamRecord));
    }
    for (int c = 0; c < clients(); ++c) {
      RETURN_IF_ERROR(WriteSetupFile(vfs, Name("/st", "w", c), seed_, kPrivFileBase + c,
                                     kStreamFileBytes, kStreamRecord));
      owned_.emplace_back(kStreamFileBytes / kStreamRecord);
    }
    return vfs.Sync();
  }

  Result<std::unique_ptr<Driver>> MakeDriver(CacheManager* cm, int index) override;

  uint64_t Verify(CacheManager* fresh, std::string* detail) override {
    uint64_t bad = 0;
    for (int c = 0; c < clients(); ++c) {
      const OwnedFile& model = owned_[c];
      bad += ReadBack(
          fresh, Name("/st", "w", c), kStreamFileBytes, kStreamRecord,
          [&](size_t i, std::span<const uint8_t> rec) {
            Stamp s;
            return ParseRecord(rec, seed_, kPrivFileBase + c, static_cast<uint32_t>(i), &s) &&
                   model.Durable(i, s);
          },
          detail);
    }
    return bad;
  }

 private:
  friend class StreamDriver;
  uint64_t seed_;
  std::vector<OwnedFile> owned_;
};

class StreamDriver : public Driver {
 public:
  StreamDriver(Stream& w, CacheManager* cm, int index)
      : w_(w), cm_(cm), index_(index), rng_(Mix(w.seed_, index + 1)), model_(w.owned_[index]),
        buf_(kStreamIo) {}

  Status Init() {
    ASSIGN_OR_RETURN(vfs_, cm_->MountVolume("home"));
    for (int f = 0; f < kStreamFiles; ++f) {
      paths_.push_back(Name("/st", "f", f));
    }
    own_path_ = Name("/st", "w", index_);
    ASSIGN_OR_RETURN(own_, dfs::ResolvePath(*vfs_, own_path_));
    // The client's own file enters its cache first, whatever the seed, so
    // where its blocks sit in the cache partition does not vary by seed.
    ClientResult warm;
    if (!Rewrite(warm, own_) || warm.failed > 0) {
      return Status(dfs::ErrorCode::kIoError, "warm rewrite of the client's file failed");
    }
    return Status::Ok();
  }

  void Step(ClientResult& r) override {
    bool scan = rng_.Below(4) != 0;
    int f = scan ? static_cast<int>(rng_.Below(kStreamFiles)) : -1;
    VnodeRef v = TimedOpen(*vfs_, scan ? paths_[f] : own_path_, kStreamFileBytes, r);
    if (v == nullptr) {
      return;
    }
    if (scan) {
      for (size_t off = 0; off < kStreamFileBytes; off += kStreamIo) {
        uint64_t t0 = NowNs();
        auto n = v->Read(off, buf_);
        uint64_t t1 = NowNs();
        bool called = n.ok() && *n == kStreamIo;
        bool good = called && IsSetupData(buf_, kStreamRecord, w_.seed_, f,
                                          static_cast<uint32_t>(off / kStreamRecord));
        r.Record(kRead, t0, t1, good, kStreamIo, called && !good);
        if (!good) {
          r.NoteError(n.ok() ? "read: wrong bytes" : "read: " + n.status().ToString());
          return;
        }
      }
      return;
    }
    (void)Rewrite(r, v);
  }

  Status Finish() override { return SyncOwned(cm_, own_, model_, nullptr); }

 private:
  // Rewrites the client's whole file in kStreamIo writes, then fsyncs it.
  // Returns false if an op failed.
  bool Rewrite(ClientResult& r, const VnodeRef& v) {
    Stamp s{static_cast<uint32_t>(index_ + 1), ++seq_};
    for (size_t off = 0; off < kStreamFileBytes; off += kStreamIo) {
      for (size_t rec = 0; rec < kStreamIo; rec += kStreamRecord) {
        FillRecord(std::span<uint8_t>(buf_).subspan(rec, kStreamRecord), w_.seed_,
                   kPrivFileBase + index_, static_cast<uint32_t>((off + rec) / kStreamRecord), s);
      }
      uint64_t t0 = NowNs();
      auto n = v->Write(off, buf_);
      uint64_t t1 = NowNs();
      bool good = n.ok() && *n == kStreamIo;
      model_.Wrote(off / kStreamRecord, kStreamIo / kStreamRecord, s, good, kStreamIo);
      r.Record(kWrite, t0, t1, good, kStreamIo);
      if (!good) {
        r.NoteError("write: " + n.status().ToString());
        return false;
      }
    }
    return SyncOwned(cm_, v, model_, &r).ok();
  }

  Stream& w_;
  CacheManager* cm_;
  int index_;
  dfs::Rng rng_;
  OwnedFile& model_;
  dfs::VfsRef vfs_;
  std::vector<std::string> paths_;
  std::string own_path_;
  VnodeRef own_;
  uint64_t seq_ = 0;
  std::vector<uint8_t> buf_;
};

Result<std::unique_ptr<Driver>> Stream::MakeDriver(CacheManager* cm, int index) {
  auto d = std::make_unique<StreamDriver>(*this, cm, index);
  RETURN_IF_ERROR(d->Init());
  return std::unique_ptr<Driver>(std::move(d));
}

// --- shared_write ---------------------------------------------------------------
//
// Writes beside reads on the same small files: every write needs a write token
// others hold, so the token manager grants and revokes on most ops and the
// server's per-file locks, stamps and Episode's commit path do the work.
// 8 shared files of 16 KiB in one shared directory, no link delay. Mix per
// step: 40% 4 KiB Read, 30% 1 KiB Write of one record plus Fsync, 15% Create
// then Unlink of a per-client name (the directory keeps its size), 15%
// ResolvePath+GetAttr. Four clients: this loop waits on locks and tokens
// rather than on the CPU.

constexpr int kSharedFiles = 8;
constexpr size_t kSharedFileBytes = 16 * 1024;
constexpr size_t kSharedRecord = 1024;
constexpr size_t kSharedRead = 4096;
constexpr size_t kSharedRecords = kSharedFileBytes / kSharedRecord;
constexpr int kSharedClients = 4;

class SharedWrite : public Workload {
 public:
  explicit SharedWrite(uint64_t seed)
      : seed_(seed), records_(kSharedFiles * kSharedRecords, kSharedClients) {}
  int clients() const override { return kSharedClients; }
  CellOptions cell_options() const override { return CellOptions{}; }

  Status Populate(Cell& cell) override {
    dfs::Vfs& vfs = *cell.admin;
    RETURN_IF_ERROR(MakeDir(vfs, "/sw"));
    for (int f = 0; f < kSharedFiles; ++f) {
      RETURN_IF_ERROR(
          WriteSetupFile(vfs, Name("/sw", "f", f), seed_, f, kSharedFileBytes, kSharedRecord));
    }
    return vfs.Sync();
  }

  Result<std::unique_ptr<Driver>> MakeDriver(CacheManager* cm, int index) override;

  uint64_t Verify(CacheManager* fresh, std::string* detail) override {
    uint64_t bad = 0;
    for (int f = 0; f < kSharedFiles; ++f) {
      bad += ReadBack(
          fresh, Name("/sw", "f", f), kSharedFileBytes, kSharedRecord,
          [&](size_t i, std::span<const uint8_t> rec) {
            Stamp s;
            return ParseRecord(rec, seed_, f, static_cast<uint32_t>(i), &s) &&
                   records_.FinalOk(f * kSharedRecords + i, s);
          },
          detail);
    }
    return bad;
  }

 private:
  friend class SharedWriteDriver;
  uint64_t seed_;
  SharedRecords records_;
};

class SharedWriteDriver : public Driver {
 public:
  SharedWriteDriver(SharedWrite& w, CacheManager* cm, int index)
      : w_(w), cm_(cm), index_(index), rng_(Mix(w.seed_, index + 1)) {}

  Status Init() {
    ASSIGN_OR_RETURN(vfs_, cm_->MountVolume("home"));
    ASSIGN_OR_RETURN(dir_, dfs::ResolvePath(*vfs_, "/sw"));
    std::vector<uint8_t> buf(kSharedFileBytes);
    for (int f = 0; f < kSharedFiles; ++f) {
      paths_.push_back(Name("/sw", "f", f));
      ASSIGN_OR_RETURN(VnodeRef v, dfs::ResolvePath(*vfs_, paths_.back()));
      ASSIGN_OR_RETURN(size_t n, v->Read(0, buf));
      if (n != kSharedFileBytes || !IsSetupData(buf, kSharedRecord, w_.seed_, f, 0)) {
        return Status(dfs::ErrorCode::kIoError, "warm read returned wrong bytes");
      }
      files_.push_back(v);
    }
    temp_name_ = "t" + std::to_string(index_);
    return Status::Ok();
  }

  void Step(ClientResult& r) override {
    uint64_t roll = rng_.Below(100);
    int f = static_cast<int>(rng_.Below(kSharedFiles));
    if (roll < 40) {
      uint64_t block = rng_.Below(kSharedFileBytes / kSharedRead);
      uint64_t t0 = NowNs();
      auto n = files_[f]->Read(block * kSharedRead, std::span<uint8_t>(buf_, kSharedRead));
      uint64_t t1 = NowNs();
      bool called = n.ok() && *n == kSharedRead;
      bool good = called;
      for (size_t i = 0; good && i < kSharedRead / kSharedRecord; ++i) {
        Stamp s;
        good = ParseRecord(std::span<const uint8_t>(buf_ + i * kSharedRecord, kSharedRecord),
                           w_.seed_, f, static_cast<uint32_t>(block * 4 + i), &s) &&
               w_.records_.Plausible(s);
      }
      r.Record(kRead, t0, t1, good, kSharedRead, called && !good);
      if (!good) {
        r.NoteError(n.ok() ? "read: wrong bytes" : "read: " + n.status().ToString());
      }
    } else if (roll < 70) {
      size_t rec = rng_.Below(kSharedRecords);
      size_t slot = f * kSharedRecords + rec;
      Stamp s{static_cast<uint32_t>(index_ + 1), ++seq_};
      std::span<uint8_t> data(buf_, kSharedRecord);
      FillRecord(data, w_.seed_, f, static_cast<uint32_t>(rec), s);
      uint64_t t0 = NowNs();
      size_t event = w_.records_.Begin(slot, s, t0);
      auto n = files_[f]->Write(rec * kSharedRecord, data);
      uint64_t t1 = NowNs();
      bool good = n.ok() && *n == kSharedRecord;
      r.Record(kWrite, t0, t1, good, kSharedRecord);
      if (!good) {
        r.NoteError("write: " + n.status().ToString());
        return;
      }
      uint64_t t2 = NowNs();
      Status st = cm_->Fsync(files_[f]->fid());
      uint64_t t3 = NowNs();
      r.Record(kFsync, t2, t3, st.ok(), kSharedRecord);
      if (st.ok()) {
        w_.records_.Confirm(slot, event, t3);
      } else {
        r.NoteError("fsync: " + st.ToString());
      }
    } else if (roll < 85) {
      uint64_t t0 = NowNs();
      auto created = dir_->Create(temp_name_, dfs::FileType::kFile, 0666, dfs::Cred{kUid, {kUid}});
      uint64_t t1 = NowNs();
      r.Record(kMeta, t0, t1, created.ok());
      if (!created.ok()) {
        r.NoteError("create: " + created.status().ToString());
      }
      uint64_t t2 = NowNs();
      Status st = dir_->Unlink(temp_name_);
      uint64_t t3 = NowNs();
      r.Record(kMeta, t2, t3, st.ok());
      if (!st.ok()) {
        r.NoteError("unlink: " + st.ToString());
      }
    } else {
      (void)TimedOpen(*vfs_, paths_[f], kSharedFileBytes, r);
    }
  }

  // Every write was followed by its own fsync; SyncAll pushes whatever a
  // failed fsync left dirty.
  Status Finish() override { return cm_->SyncAll(); }

 private:
  SharedWrite& w_;
  CacheManager* cm_;
  int index_;
  dfs::Rng rng_;
  dfs::VfsRef vfs_;
  VnodeRef dir_;
  std::vector<std::string> paths_;
  std::vector<VnodeRef> files_;
  std::string temp_name_;
  uint64_t seq_ = 0;
  alignas(8) uint8_t buf_[kSharedRead];
};

Result<std::unique_ptr<Driver>> SharedWrite::MakeDriver(CacheManager* cm, int index) {
  auto d = std::make_unique<SharedWriteDriver>(*this, cm, index);
  RETURN_IF_ERROR(d->Init());
  return std::unique_ptr<Driver>(std::move(d));
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "hot_read") {
    return std::make_unique<HotRead>(seed);
  }
  if (name == "stream") {
    return std::make_unique<Stream>(seed);
  }
  if (name == "shared_write") {
    return std::make_unique<SharedWrite>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
