#include "src/client/cache_store.h"

#include <algorithm>
#include <cstring>

namespace dfs {

Status MemoryCacheStore::Put(const Fid& fid, uint64_t block, std::span<const uint8_t> data) {
  MutexLock lock(mu_);
  blocks_[{fid, block}] = BufferSlice::CopyOf(data);
  return Status::Ok();
}

Status MemoryCacheStore::Get(const Fid& fid, uint64_t block, std::span<uint8_t> out) {
  MutexLock lock(mu_);
  auto it = blocks_.find({fid, block});
  if (it == blocks_.end()) {
    return Status(ErrorCode::kNotFound, "block not in cache");
  }
  size_t n = std::min(out.size(), it->second.size());
  std::memcpy(out.data(), it->second.data(), n);
  if (n < out.size()) {
    std::memset(out.data() + n, 0, out.size() - n);
  }
  return Status::Ok();
}

Status MemoryCacheStore::PutSlice(const Fid& fid, uint64_t block, BufferSlice data) {
  MutexLock lock(mu_);
  // Replaces the whole mapping; any slice handed out earlier keeps its (now
  // superseded) region alive and immutable.
  blocks_[{fid, block}] = std::move(data);
  return Status::Ok();
}

Result<BufferSlice> MemoryCacheStore::GetSlice(const Fid& fid, uint64_t block, size_t len) {
  MutexLock lock(mu_);
  auto it = blocks_.find({fid, block});
  if (it == blocks_.end()) {
    return Status(ErrorCode::kNotFound, "block not in cache");
  }
  if (it->second.size() >= len) {
    return it->second.Sub(0, len);
  }
  // Stored region is shorter than asked (a pre-slice store of a short tail):
  // pad out with zeros, matching Get's contract. The copy is deliberate and
  // rare — full blocks take the branch above.
  std::vector<uint8_t> buf(len, 0);
  std::memcpy(buf.data(), it->second.data(), it->second.size());
  return BufferSlice::TakeOwnership(std::move(buf));
}

void MemoryCacheStore::Erase(const Fid& fid, uint64_t block) {
  MutexLock lock(mu_);
  blocks_.erase({fid, block});
}

uint64_t MemoryCacheStore::bytes_used() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, data] : blocks_) {
    total += data.size();
  }
  return total;
}

}  // namespace dfs
