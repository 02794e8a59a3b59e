// E12: the Section-6.3 serialization-after-the-fact machinery.
//
// Per-file timestamps order replies and revocations that race on the wire;
// the client merges status only when the stamp is newer, queues revocations
// for tokens it has not seen yet, and never lets old status overwrite new.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/vfs/path.h"
#include "tests/dfs_rig.h"
#include "tests/test_util.h"

namespace dfs {
namespace {

// Sends a revocation RPC directly to the client, as the server would.
uint8_t SendRevocation(DfsRig& rig, NodeId client, const Token& token, uint32_t types,
                       uint64_t stamp) {
  Writer w;
  token.Serialize(w);
  w.PutU32(types);
  w.PutU64(stamp);
  auto raw = rig.net.Call(kServerNode, client, kRevokeToken, w.data(), "server");
  auto payload = UnwrapReply(std::move(raw));
  EXPECT_TRUE(payload.ok());
  Reader r(*payload);
  auto code = r.ReadU8();
  EXPECT_TRUE(code.ok());
  return *code;
}

TEST(RevocationOrderingTest, UnknownTokenWithNoInFlightRpcIsReturnedImmediately) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));

  // A revocation for a token this client never saw: nothing is in flight, so
  // the client answers "returned" (it cannot be holding it).
  Token ghost;
  ghost.id = 999999;
  ghost.fid = f->fid();
  ghost.types = kTokenDataRead;
  EXPECT_EQ(SendRevocation(*rig, client->node(), ghost, kTokenDataRead, 1),
            kRevokeReturned);
}

TEST(RevocationOrderingTest, KnownTokenIsAppliedAndReturned) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "cached", TestCred()));
  ASSERT_OK(client->SyncAll());
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::vector<uint8_t> buf(6);
  ASSERT_OK(f->Read(0, buf).status());  // acquires a data-read token

  // Find the client's token on the server and revoke it by hand.
  auto tokens = rig->server->tokens().TokensForHost(client->node());
  ASSERT_FALSE(tokens.empty());
  Token victim;
  bool found = false;
  for (const Token& t : tokens) {
    if (t.fid == f->fid() && (t.types & kTokenDataRead)) {
      victim = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(SendRevocation(*rig, client->node(), victim, victim.types,
                           rig->server->NextStamp(f->fid())),
            kRevokeReturned);
  // The next read must go back to the server (cache was dropped).
  LinkStats before = rig->net.StatsBetween(client->node(), kServerNode);
  ASSERT_OK(f->Read(0, buf).status());
  EXPECT_GT(rig->net.StatsBetween(client->node(), kServerNode).calls, before.calls);
}

TEST(RevocationOrderingTest, OpenTokenRevocationRefusedWhileOpen) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", "x", TestCred()));
  ASSERT_OK_AND_ASSIGN(OpenHandle h, client->Open(*vfs, "/f", OpenMode::kRead));

  auto tokens = rig->server->tokens().TokensForHost(client->node());
  Token open_token;
  bool found = false;
  for (const Token& t : tokens) {
    if (t.types & kTokenOpenRead) {
      open_token = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  // Section 5.3: a client with the file open normally elects to keep it.
  EXPECT_EQ(SendRevocation(*rig, client->node(), open_token, open_token.types, 100),
            kRevokeRefused);
  ASSERT_OK(h.Close());
  EXPECT_EQ(SendRevocation(*rig, client->node(), open_token, open_token.types, 101),
            kRevokeReturned);
}

// A read-only data token and a read+write data token can cover the same dirty
// block. Revoking the read-only one first must leave the dirty bytes in the
// cache, so the write-token revocation that follows stores them back intact
// (not zeros, and not an error).
TEST(RevocationOrderingTest, ReadTokenRevocationKeepsDirtyBlocks) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", std::string(kBlockSize, 'o'), TestCred()));
  ASSERT_OK(client->SyncAll());
  ASSERT_OK(client->ReturnAllTokens());
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  // Read two blocks, so the read-only token's range is not contained in the
  // write token's and does not fold into it.
  std::vector<uint8_t> buf(2 * kBlockSize);
  ASSERT_OK(f->Read(0, buf).status());  // read-only data token over blocks 0-1
  std::vector<uint8_t> fresh(kBlockSize, 'n');
  ASSERT_OK(f->Write(0, fresh).status());  // read+write data token, block 0 dirty

  Token read_only;
  Token read_write;
  for (const Token& t : rig->server->tokens().TokensForHost(client->node())) {
    if (t.fid != f->fid()) {
      continue;
    }
    if ((t.types & kTokenDataWrite) != 0) {
      read_write = t;
    } else if ((t.types & kTokenDataRead) != 0) {
      read_only = t;
    }
  }
  ASSERT_NE(read_only.id, 0u);
  ASSERT_NE(read_write.id, 0u);
  ASSERT_TRUE(read_only.range.Overlaps(read_write.range));

  EXPECT_EQ(SendRevocation(*rig, client->node(), read_only, kTokenDataRead,
                           rig->server->NextStamp(f->fid())),
            kRevokeReturned);
  EXPECT_EQ(SendRevocation(*rig, client->node(), read_write, read_write.types,
                           rig->server->NextStamp(f->fid())),
            kRevokeReturned);

  CacheManager* other = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef ovfs, other->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*ovfs, "/f"));
  ASSERT_EQ(back.size(), kBlockSize);
  EXPECT_EQ(std::count(back.begin(), back.end(), 'n'), static_cast<ptrdiff_t>(kBlockSize));
}

// A grant reply can be lost (timeout, partition) after the server folded the
// client's older tokens into the new grant. The server then revokes a token
// the client never saw, while the client still caches under the folded ones:
// the revocation must strip the revoked types from them.
TEST(RevocationOrderingTest, UnknownRevocationStripsWhatALostGrantFolded) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", std::string(kBlockSize, 'o'), TestCred()));
  ASSERT_OK(client->SyncAll());
  ASSERT_OK(client->ReturnAllTokens());
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::vector<uint8_t> buf(kBlockSize);
  ASSERT_OK(f->Read(0, buf).status());  // fetched: data-read token over block 0
  uint64_t fetches = rig->server->stats().fetch_data_calls;
  ASSERT_OK(f->Read(0, buf).status());
  ASSERT_EQ(rig->server->stats().fetch_data_calls, fetches) << "served from cache";

  // The lost grant: an id this client never saw, on the same file, covering
  // block 0; nothing is in flight.
  Token ghost;
  ghost.id = 999999;
  ghost.fid = f->fid();
  ghost.types = kTokenDataRead | kTokenStatusRead;
  ghost.range = ByteRange{0, kBlockSize};
  ghost.host = client->node();
  EXPECT_EQ(SendRevocation(*rig, client->node(), ghost, kTokenDataRead,
                           rig->server->NextStamp(f->fid())),
            kRevokeReturned);
  ASSERT_OK(f->Read(0, buf).status());
  EXPECT_GT(rig->server->stats().fetch_data_calls, fetches)
      << "block 0 must be re-fetched, not served under a stripped token";
}

TEST(RevocationOrderingTest, UnknownWriteRevocationPushesDirtyDataFirst) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* client = rig->NewClient();
  ASSERT_OK_AND_ASSIGN(VfsRef vfs, client->MountVolume("home"));
  ASSERT_OK(WriteFileAt(*vfs, "/f", std::string(kBlockSize, 'o'), TestCred()));
  ASSERT_OK(client->SyncAll());
  ASSERT_OK_AND_ASSIGN(VnodeRef f, ResolvePath(*vfs, "/f"));
  std::vector<uint8_t> fresh(kBlockSize, 'n');
  ASSERT_OK(f->Write(0, fresh).status());  // block 0 dirty under a write token

  Token ghost;
  ghost.id = 999999;
  ghost.fid = f->fid();
  ghost.types = kTokenDataRead | kTokenDataWrite | kTokenStatusRead;
  ghost.range = ByteRange{0, kBlockSize};
  ghost.host = client->node();
  EXPECT_EQ(SendRevocation(*rig, client->node(), ghost, kTokenDataWrite,
                           rig->server->NextStamp(f->fid())),
            kRevokeReturned);
  // The server's own copy, read beneath the token layer: the dirty block
  // reached it before the revocation was answered.
  ASSERT_OK_AND_ASSIGN(VfsRef physical, rig->server->ExportedVolume(rig->volume_id));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileAt(*physical, "/f"));
  ASSERT_EQ(back.size(), kBlockSize);
  EXPECT_EQ(std::count(back.begin(), back.end(), 'n'), static_cast<ptrdiff_t>(kBlockSize));
}

TEST(RevocationOrderingTest, StaleStatusNeverOverwritesNewer) {
  // Drive MergeSync's stamp rule end-to-end: after the client has seen stamp
  // S, a revocation or reply carrying an older stamp must not roll attributes
  // back. We approximate by hammering one file from two clients and checking
  // the size a third client observes is always the latest synced value.
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* a = rig->NewClient("alice");
  CacheManager* b = rig->NewClient("bob");
  ASSERT_OK_AND_ASSIGN(VfsRef avfs, a->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef bvfs, b->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*avfs, "/race", 0666, TestCred()).status());

  for (int round = 1; round <= 20; ++round) {
    std::string payload(static_cast<size_t>(round), 'r');
    Vfs& vfs = (round % 2 == 0) ? *avfs : *bvfs;
    ASSERT_OK(WriteFileAt(vfs, "/race", payload, TestCred(round % 2 == 0 ? 100 : 101)));
    // Both clients observe a size that never goes backwards.
    ASSERT_OK_AND_ASSIGN(VnodeRef af, ResolvePath(*avfs, "/race"));
    ASSERT_OK_AND_ASSIGN(FileAttr attr, af->GetAttr());
    EXPECT_EQ(attr.size, static_cast<uint64_t>(round));
  }
}

TEST(RevocationOrderingTest, ConcurrentReadersAndOneWriterConverge) {
  auto rig = DfsRig::Create();
  ASSERT_NE(rig, nullptr);
  CacheManager* writer = rig->NewClient("alice");
  CacheManager* r1 = rig->NewClient("bob");
  CacheManager* r2 = rig->NewClient("root");
  ASSERT_OK_AND_ASSIGN(VfsRef wv, writer->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef v1, r1->MountVolume("home"));
  ASSERT_OK_AND_ASSIGN(VfsRef v2, r2->MountVolume("home"));
  ASSERT_OK(CreateFileAt(*wv, "/conv", 0666, TestCred()).status());

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  auto read_loop = [&](Vfs* vfs) {
    while (!stop.load()) {
      auto r = ReadFileAt(*vfs, "/conv");
      if (!r.ok()) {
        reader_errors.fetch_add(1);
      }
    }
  };
  std::thread t1(read_loop, v1.get());
  std::thread t2(read_loop, v2.get());
  Status writer_status = Status::Ok();
  for (int i = 0; i < 30 && writer_status.ok(); ++i) {
    writer_status = WriteFileAt(*wv, "/conv", "gen " + std::to_string(i), TestCred());
  }
  stop.store(true);
  t1.join();
  t2.join();
  ASSERT_OK(writer_status);
  EXPECT_EQ(reader_errors.load(), 0);
  ASSERT_OK_AND_ASSIGN(std::string final1, ReadFileAt(*v1, "/conv"));
  ASSERT_OK_AND_ASSIGN(std::string final2, ReadFileAt(*v2, "/conv"));
  EXPECT_EQ(final1, "gen 29");
  EXPECT_EQ(final2, "gen 29");
}

}  // namespace
}  // namespace dfs
