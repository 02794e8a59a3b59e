// Asynchronous data path (E16): background readahead, parallel bulk
// fetch/store, ablation fidelity, and the prefetch-vs-revocation race.
// Labeled CONCURRENCY: the race tests run under TSAN in the sanitizer job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/client/prefetcher.h"
#include "src/vfs/path.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// Writes a `blocks`-block file at `path` through a scratch client and pushes
// it to the server, so readers start cold.
void SeedFile(DfsRig& rig, const std::string& path, uint64_t blocks, char fill) {
  CacheManager* setup = rig.NewClient("root");
  ASSERT_NE(setup, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, setup->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, path, 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*vfs, path, std::string(blocks * kBlockSize, fill), TestCred()));
  ASSERT_OK(setup->SyncAll());
  ASSERT_OK(setup->ReturnAllTokens());
}

TEST(DatapathTest, BackgroundPrefetchServesSequentialReads) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/seq", 64, 'q');

  CacheManager::Options opts;
  opts.prefetch_threads = 2;
  opts.readahead_min_blocks = 4;
  opts.readahead_max_blocks = 32;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/seq"));

  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 64; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    EXPECT_EQ(buf[0], 'q') << "block " << b;
    EXPECT_EQ(buf[kBlockSize - 1], 'q') << "block " << b;
    // Give the background windows a moment to land so the stream actually
    // runs ahead of the reader (the bench measures the speedup; this test
    // only asserts the mechanism works and stays correct).
    if (b % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  CacheManager::Stats stats = reader->stats();
  EXPECT_GT(stats.prefetch_issued, 0u) << "sequential stream never claimed a window";
  EXPECT_GT(stats.prefetch_hits, 0u) << "no foreground read was served by the daemon";
}

TEST(DatapathTest, PrefetchDisabledReproducesSynchronousPath) {
  // The ablation contract: prefetch_threads == 0 and max_rpc_bytes == 0 must
  // leave the legacy synchronous data path untouched — no daemon activity, no
  // split RPCs, never more than one data RPC in flight from one reader.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/legacy", 32, 'l');

  CacheManager* reader = rig->NewClient("alice");  // all defaults
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/legacy"));
  std::vector<uint8_t> buf(kBlockSize);
  for (uint64_t b = 0; b < 32; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    ASSERT_EQ(buf[0], 'l');
  }
  ASSERT_OK(WriteFileAt(*vfs, "/legacy", std::string(8 * kBlockSize, 'm'), TestCred()));
  ASSERT_OK(reader->SyncAll());

  CacheManager::Stats stats = reader->stats();
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_cancelled, 0u);
  EXPECT_EQ(stats.bulk_rpcs_split, 0u);
  EXPECT_LE(stats.inflight_highwater, 1u)
      << "the synchronous path must never pipeline data RPCs";
}

TEST(DatapathTest, BulkFetchSplitsLargeReadsAndMergesCorrectly) {
  // Each RPC leg sleeps, so a chunk stays on the wire long enough for the
  // pool to issue the next one beside it even on a loaded machine: over an
  // instant in-process link the overlap asserted below would be up to the
  // scheduler.
  DfsRig::Options ropts;
  ropts.server.rpc.sim_latency_us = 500;
  auto rig = DfsRig::Create(ropts);
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 64;  // 256 KiB
  SeedFile(*rig, "/big", kBlocks, 'b');

  CacheManager::Options opts;
  opts.prefetch_threads = 4;
  // 8 chunks: the token-carrying first chunk is a serial barrier, so 7 data
  // chunks remain to overlap on 4 threads — enough that at least two are
  // always in flight together regardless of scheduling.
  opts.max_rpc_bytes = 8 * kBlockSize;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/big"));

  std::vector<uint8_t> buf(kBlocks * kBlockSize);
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, buf));
  ASSERT_EQ(n, buf.size());
  for (size_t i = 0; i < buf.size(); i += kBlockSize / 2) {
    ASSERT_EQ(buf[i], 'b') << "offset " << i;
  }
  CacheManager::Stats stats = reader->stats();
  EXPECT_GE(stats.bulk_rpcs_split, 1u);
  EXPECT_GE(stats.inflight_highwater, 2u)
      << "sub-range RPCs of a split fetch must overlap";
}

TEST(DatapathTest, SingleThreadPoolNeverSplitsTransfers) {
  // A pool of one thread runs chunks one after another: a split would pay a
  // round trip per chunk with nothing to overlap it. A large fetch and a
  // large fsync push must each stay one RPC.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 64;  // 256 KiB, 8x max_rpc_bytes
  SeedFile(*rig, "/p1", kBlocks, 'p');

  CacheManager::Options opts;
  opts.prefetch_threads = 1;
  opts.max_rpc_bytes = 8 * kBlockSize;
  CacheManager* client = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/p1"));

  std::vector<uint8_t> buf(kBlocks * kBlockSize);
  ASSERT_OK_AND_ASSIGN(size_t n, f->Read(0, buf));
  ASSERT_EQ(n, buf.size());
  for (size_t i = 0; i < buf.size(); i += kBlockSize / 2) {
    ASSERT_EQ(buf[i], 'p') << "offset " << i;
  }
  std::vector<uint8_t> fresh(kBlocks * kBlockSize, 'w');
  ASSERT_OK_AND_ASSIGN(size_t written, f->Write(0, fresh));
  ASSERT_EQ(written, fresh.size());
  ASSERT_OK(client->Fsync(f->fid()));

  CacheManager::Stats stats = client->stats();
  EXPECT_EQ(stats.bulk_rpcs_split, 0u) << "a one-thread pool cannot overlap chunks";
  EXPECT_LE(stats.inflight_highwater, 1u);

  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/p1"));
  EXPECT_EQ(back, std::string(kBlocks * kBlockSize, 'w'));
}

TEST(DatapathTest, BulkStoreSplitsLargeWritesAndReadsBack) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 64;

  CacheManager::Options opts;
  opts.prefetch_threads = 4;
  opts.max_rpc_bytes = 16 * kBlockSize;
  CacheManager* writer = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*vfs, "/bigw", 0666, TestCred()).status());
  std::string data(kBlocks * kBlockSize, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>('a' + (i / kBlockSize) % 26);
  }
  ASSERT_OK(WriteFileAt(*vfs, "/bigw", data, TestCred()));
  ASSERT_OK(writer->SyncAll());
  EXPECT_GE(writer->stats().bulk_rpcs_split, 1u);

  // A cold second client must see exactly the written bytes: the per-chunk
  // sync merges (stamp rule) may land out of order but never corrupt data.
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rv, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rv, "/bigw"));
  EXPECT_EQ(back, data);
}

TEST(DatapathTest, ServerRevocationRacesInflightPrefetch) {
  // A reader streams with background readahead while a writer repeatedly
  // rewrites the same file, so data revocations keep arriving at the reader
  // with prefetch windows in flight. Every read must return whole-block
  // consistent data (all old fill or all new fill), and once the writer is
  // done the reader must converge to the final contents.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  SeedFile(*rig, "/race", kBlocks, 'a');

  CacheManager::Options ropts;
  ropts.prefetch_threads = 4;
  ropts.readahead_min_blocks = 4;
  ropts.readahead_max_blocks = 16;
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rvfs, "/race"));

  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wvfs, "/race"));
  std::atomic<bool> done{false};
  std::thread writer_thread([&] {
    // Rewrite in place (no truncate): the file's size never changes, so a
    // racing read always sees a full block of *some* fill generation.
    const char fills[] = {'b', 'c', 'd'};
    for (char fill : fills) {
      std::string data(kBlocks * kBlockSize, fill);
      auto w = wf->Write(0, std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(data.data()), data.size()));
      EXPECT_TRUE(w.ok()) << w.status().message();
      Status s = writer->SyncAll();
      EXPECT_TRUE(s.ok()) << s.message();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<uint8_t> buf(kBlockSize);
  while (!done.load(std::memory_order_acquire)) {
    for (uint64_t b = 0; b < kBlocks; ++b) {
      auto n = rf->Read(b * kBlockSize, buf);
      ASSERT_TRUE(n.ok()) << n.status().message();
      ASSERT_EQ(*n, kBlockSize);
      char first = static_cast<char>(buf[0]);
      ASSERT_TRUE(first >= 'a' && first <= 'd') << "block " << b;
      for (size_t i = 0; i < kBlockSize; i += 257) {
        ASSERT_EQ(static_cast<char>(buf[i]), first)
            << "torn block " << b << " at byte " << i;
      }
    }
  }
  writer_thread.join();

  // Convergence: the next full pass revokes the writer's tokens (storing its
  // data) and must observe the final fill everywhere.
  for (uint64_t b = 0; b < kBlocks; ++b) {
    ASSERT_OK_AND_ASSIGN(size_t n, rf->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    EXPECT_EQ(static_cast<char>(buf[0]), 'd') << "block " << b;
  }
  // The daemon's bookkeeping stayed coherent across the revocations: every
  // issued window was eventually consumed, cancelled, or wasted — and the
  // client survives a clean shutdown with windows possibly still in flight.
  (void)reader->stats();
}

TEST(DatapathTest, BulkFetchNeverCachesStaleDataUnderConcurrentWrites) {
  // Regression for the split fetch's read/grant atomicity: the tokenless
  // data chunks must only go on the wire once the token chunk has landed
  // (grant-before-data barrier). Without the barrier, a writer slipping
  // between a data chunk's server-side read and the grant leaves this
  // client caching stale bytes under a valid token — no revocation is ever
  // aimed at it, so the stale data would be served indefinitely.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  constexpr uint64_t kBlocks = 32;
  SeedFile(*rig, "/stale", kBlocks, 'a');

  CacheManager::Options ropts;
  ropts.prefetch_threads = 4;
  ropts.max_rpc_bytes = 8 * kBlockSize;  // 32-block reads -> 4 chunks
  CacheManager* reader = rig->NewClient("alice", ropts);
  CacheManager* writer = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef wvfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rvfs, "/stale"));
  ASSERT_OK_AND_ASSIGN(VnodeRef wf, ResolvePath(*wvfs, "/stale"));

  std::atomic<bool> done{false};
  std::thread writer_thread([&] {
    // Rewrite in place (size never changes) so every racing read sees whole
    // blocks of *some* fill generation.
    const char fills[] = {'b', 'c', 'd'};
    for (char fill : fills) {
      std::string data(kBlocks * kBlockSize, fill);
      auto w = wf->Write(0, std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(data.data()), data.size()));
      EXPECT_TRUE(w.ok()) << w.status().message();
      Status s = writer->SyncAll();
      EXPECT_TRUE(s.ok()) << s.message();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true, std::memory_order_release);
  });

  // EXPECT + break (not ASSERT) inside the loop: a failure must still fall
  // through to the join below, or the test tears down with the writer thread
  // joinable and aborts instead of reporting.
  std::vector<uint8_t> buf(kBlocks * kBlockSize);
  while (!done.load(std::memory_order_acquire)) {
    auto n = rf->Read(0, buf);  // split into 4 chunks every cold pass
    EXPECT_TRUE(n.ok()) << n.status().message();
    if (!n.ok()) {
      break;
    }
    EXPECT_EQ(*n, buf.size());
    bool torn = false;
    for (uint64_t b = 0; b < kBlocks && !torn; ++b) {
      char first = static_cast<char>(buf[b * kBlockSize]);
      EXPECT_TRUE(first >= 'a' && first <= 'd') << "block " << b;
      torn = !(first >= 'a' && first <= 'd');
      for (size_t i = 1; i < kBlockSize && !torn; i += 509) {
        char got = static_cast<char>(buf[b * kBlockSize + i]);
        EXPECT_EQ(got, first) << "torn block " << b;
        torn = got != first;
      }
    }
    if (torn) {
      break;
    }
  }
  writer_thread.join();

  // Convergence is the regression check: the writer's final grant must have
  // revoked the reader's token (invalidating its cache), so the next read
  // refetches and sees the final fill — never a stale chunk that slipped in
  // tokenless before the grant.
  ASSERT_OK_AND_ASSIGN(size_t n, rf->Read(0, buf));
  ASSERT_EQ(n, buf.size());
  for (size_t i = 0; i < buf.size(); i += 257) {
    ASSERT_EQ(static_cast<char>(buf[i]), 'd') << "stale byte at " << i;
  }
}

TEST(DatapathTest, SeekPreservesInflightWindowClaims) {
  // Regression: a non-sequential read resets the stream via the prefetcher's
  // seek path, which must keep in-flight window claims — erasing them
  // (Forget) would let a resumed sequential reader claim and re-fetch a
  // window whose RPC is still on the wire. Forget is reserved for close and
  // revocation, where dropping the claims is the point.
  Prefetcher::Options opts;
  opts.threads = 2;
  opts.min_window_blocks = 4;
  opts.max_window_blocks = 8;
  Prefetcher p(opts);
  Fid fid{1, 2, 3};

  auto w = p.Advance(fid, 4, /*sequential=*/true);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(p.InflightWindows(fid), 1u);

  // Seek: stream resets cold, claim survives.
  EXPECT_FALSE(p.Advance(fid, 40, /*sequential=*/false).has_value());
  EXPECT_EQ(p.InflightWindows(fid), 1u);

  // The resumed stream never re-claims a start the in-flight set still holds;
  // its next window starts at the seek position.
  auto w2 = p.Advance(fid, 44, /*sequential=*/true);
  ASSERT_TRUE(w2.has_value());
  EXPECT_NE(w2->start_block, w->start_block);
  EXPECT_EQ(p.InflightWindows(fid), 2u);

  // Close/revocation drops everything.
  p.Forget(fid);
  EXPECT_EQ(p.InflightWindows(fid), 0u);
}

TEST(DatapathTest, SeekResetsPrefetchStream) {
  // A random-access pattern must not keep a stale stream alive: seeks bump
  // the cancellation generation, and late windows install tokens but no data.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/seek", 64, 's');

  CacheManager::Options opts;
  opts.prefetch_threads = 2;
  CacheManager* reader = rig->NewClient("alice", opts);
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/seek"));

  std::vector<uint8_t> buf(kBlockSize);
  // Forward run to start a stream, then jump around.
  for (uint64_t b = 0; b < 8; ++b) {
    ASSERT_OK(f->Read(b * kBlockSize, buf).status());
  }
  const uint64_t jumps[] = {48, 3, 60, 20, 1, 55};
  for (uint64_t b : jumps) {
    ASSERT_OK_AND_ASSIGN(size_t n, f->Read(b * kBlockSize, buf));
    ASSERT_EQ(n, kBlockSize);
    EXPECT_EQ(buf[0], 's');
  }
}

TEST(DatapathTest, WholeRangeOverwriteTakesTokenOnlyGrant) {
  // A block-aligned overwrite of server-resident data needs the write token
  // but not the bytes it is about to clobber: the client asks for a
  // token-only grant and the server ships zero data payload.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/clobber", 8, 'o');

  CacheManager* writer = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/clobber"));

  FileServer::Stats before = rig->server->stats();
  std::vector<uint8_t> fresh(8 * kBlockSize, 'n');
  ASSERT_OK_AND_ASSIGN(size_t n, f->Write(0, fresh));
  ASSERT_EQ(n, fresh.size());

  FileServer::Stats after = rig->server->stats();
  EXPECT_EQ(after.fetch_data_bytes, before.fetch_data_bytes)
      << "whole-range overwrite fetched data it was about to clobber";
  EXPECT_GT(after.token_only_fetches, before.token_only_fetches);
  EXPECT_GT(writer->stats().token_only_grants, 0u);

  // The write really landed: read it back through a second client.
  ASSERT_OK(writer->SyncAll());
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rvfs, "/clobber"));
  ASSERT_EQ(back.size(), 8 * kBlockSize);
  EXPECT_EQ(back[0], 'n');
  EXPECT_EQ(back[back.size() - 1], 'n');
}

TEST(DatapathTest, PartialOverwriteStillFetchesEdgeBlock) {
  // The guard rail for the token-only path: a write that merges into an
  // existing partial edge block must still fetch that block's bytes.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/merge", 4, 'e');

  CacheManager* writer = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/merge"));

  FileServer::Stats before = rig->server->stats();
  std::vector<uint8_t> patch(100, 'p');  // mid-block: both edges partial
  ASSERT_OK(f->Write(kBlockSize + 50, patch).status());
  FileServer::Stats after = rig->server->stats();
  EXPECT_GT(after.fetch_data_bytes, before.fetch_data_bytes)
      << "partial overwrite must fetch the edge block to merge into";

  ASSERT_OK(writer->SyncAll());
  CacheManager* reader = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*rvfs, "/merge"));
  EXPECT_EQ(back[kBlockSize + 49], 'e');
  EXPECT_EQ(back[kBlockSize + 50], 'p');
  EXPECT_EQ(back[kBlockSize + 150], 'e');
}

TEST(DatapathTest, ReadSlicesServesZeroCopyOverMemoryStore) {
  // ReadSlices hands back sub-slices of the store's regions: once the file is
  // cached, repeated slice reads move bytes without copying them (the client
  // copy counter stays put while the moved counter is already paid).
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  SeedFile(*rig, "/zc", 16, 'z');

  CacheManager* reader = rig->NewClient("alice");  // MemoryCacheStore shares regions
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, reader->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/zc"));

  // Warm the cache (fetch + install).
  ASSERT_OK_AND_ASSIGN(std::vector<BufferSlice> first, f->ReadSlices(0, 16 * kBlockSize));
  size_t total = 0;
  for (const BufferSlice& s : first) {
    total += s.size();
    for (size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s.data()[i], 'z');
    }
  }
  ASSERT_EQ(total, 16 * kBlockSize);

  // Cached re-reads over the sharing store take zero copies.
  uint64_t copied_before = reader->stats().bytes_copied;
  for (int round = 0; round < 4; ++round) {
    ASSERT_OK_AND_ASSIGN(std::vector<BufferSlice> again, f->ReadSlices(0, 16 * kBlockSize));
    ASSERT_EQ(again.size(), 16u);
  }
  EXPECT_EQ(reader->stats().bytes_copied, copied_before)
      << "cached ReadSlices over MemoryCacheStore must not copy";
  EXPECT_GE(reader->stats().bytes_moved, 16u * kBlockSize);

  // Read and ReadSlices are one read path. Two fresh clients driven through
  // the same accesses — a cold miss, a sequential run (whose misses inflate
  // the synchronous fetch) and random offsets, some past EOF — return the
  // same bytes, count the same hits and misses and put the same RPCs on the
  // link. Only the copy accounting differs: Read copies every byte out,
  // ReadSlices none over a sharing store.
  constexpr uint64_t kSize = 40 * kBlockSize + 123;  // a short tail block
  std::string pattern(kSize, 0);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<char>((i * 131 + i / kBlockSize) % 251);
  }
  CacheManager* setup = rig->NewClient("root");
  ASSERT_OK_AND_ASSIGN(VfsRef svfs, setup->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*svfs, "/agree", 0666, TestCred()).status());
  ASSERT_OK(WriteFileAt(*svfs, "/agree", pattern, TestCred()));
  ASSERT_OK(setup->SyncAll());
  ASSERT_OK(setup->ReturnAllTokens());

  CacheManager* by_read = rig->NewClient("bob");
  CacheManager* by_slices = rig->NewClient("bob");
  ASSERT_NE(by_read, nullptr);
  ASSERT_NE(by_slices, nullptr);
  ASSERT_OK_AND_ASSIGN(VfsRef rvfs, by_read->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef svfs2, by_slices->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VnodeRef rf, ResolvePath(*rvfs, "/agree"));
  ASSERT_OK_AND_ASSIGN(VnodeRef sf, ResolvePath(*svfs2, "/agree"));

  std::vector<std::pair<uint64_t, size_t>> accesses = {{0, 3000}};
  for (uint64_t off = 3000; off < 20 * kBlockSize; off += 5000) {
    accesses.push_back({off, 5000});
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 40; ++i) {
    accesses.push_back({rng() % (kSize + 2 * kBlockSize), 1 + rng() % (3 * kBlockSize)});
  }
  LinkStats rlink = rig->net.StatsBetween(by_read->node(), kServerNode);
  LinkStats slink = rig->net.StatsBetween(by_slices->node(), kServerNode);
  CacheManager::Stats rbefore = by_read->stats();
  CacheManager::Stats sbefore = by_slices->stats();
  uint64_t bytes_read = 0;
  for (const auto& [off, len] : accesses) {
    std::vector<uint8_t> buf(len);
    ASSERT_OK_AND_ASSIGN(size_t got, rf->Read(off, buf));
    ASSERT_OK_AND_ASSIGN(std::vector<BufferSlice> slices, sf->ReadSlices(off, len));
    std::string joined;
    for (const BufferSlice& s : slices) {
      joined.append(reinterpret_cast<const char*>(s.data()), s.size());
    }
    std::string expect = off < kSize ? pattern.substr(off, len) : std::string();
    ASSERT_EQ(std::string(reinterpret_cast<const char*>(buf.data()), got), expect)
        << "Read at " << off << "+" << len;
    ASSERT_EQ(joined, expect) << "ReadSlices at " << off << "+" << len;
    bytes_read += got;
  }
  CacheManager::Stats rs = by_read->stats();
  CacheManager::Stats ss = by_slices->stats();
  EXPECT_GT(rs.data_cache_hits - rbefore.data_cache_hits, 0u);
  EXPECT_EQ(rs.data_cache_hits - rbefore.data_cache_hits,
            ss.data_cache_hits - sbefore.data_cache_hits);
  EXPECT_EQ(rs.data_cache_misses - rbefore.data_cache_misses,
            ss.data_cache_misses - sbefore.data_cache_misses);
  EXPECT_EQ(rig->net.StatsBetween(by_read->node(), kServerNode).calls - rlink.calls,
            rig->net.StatsBetween(by_slices->node(), kServerNode).calls - slink.calls);
  EXPECT_EQ((rs.bytes_copied - rbefore.bytes_copied) - (ss.bytes_copied - sbefore.bytes_copied),
            bytes_read);
}

TEST(DatapathTest, RigAutotunesShardCountFromVolumeCount) {
  // shards = 0 arms autotuning; the rig's single-volume aggregate sizes the
  // table down to one shard at ExportAggregate time.
  DfsRig::Options ropts;
  ropts.server.tokens.shards = 0;
  auto rig = DfsRig::Create(ropts);
  ASSERT_NE(rig, nullptr);
  EXPECT_EQ(rig->server->tokens().shard_count(), 1u);

  // The default (explicit 8) is untouched.
  auto plain = DfsRig::Create();
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->server->tokens().shard_count(), 8u);

  // The autotuned table serves traffic normally.
  CacheManager* client = rig->NewClient("alice");
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/t", "autotuned", TestCred()));
  ASSERT_OK(client->SyncAll());
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*vfs, "/t"));
  EXPECT_EQ(back, "autotuned");
}

}  // namespace
}  // namespace dfs
