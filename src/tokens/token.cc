#include "src/tokens/token.h"

#include "src/vfs/wire.h"

namespace dfs {

std::string TokenTypesToString(uint32_t types) {
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) {
      out += "|";
    }
    out += name;
  };
  if (types & kTokenDataRead) add("DATA_R");
  if (types & kTokenDataWrite) add("DATA_W");
  if (types & kTokenStatusRead) add("STATUS_R");
  if (types & kTokenStatusWrite) add("STATUS_W");
  if (types & kTokenLockRead) add("LOCK_R");
  if (types & kTokenLockWrite) add("LOCK_W");
  if (types & kTokenOpenRead) add("OPEN_R");
  if (types & kTokenOpenWrite) add("OPEN_W");
  if (types & kTokenOpenExecute) add("OPEN_X");
  if (types & kTokenOpenShared) add("OPEN_SR");
  if (types & kTokenOpenExclusive) add("OPEN_XW");
  if (types & kTokenWholeVolume) add("VOLUME");
  return out.empty() ? "NONE" : out;
}

void Token::Serialize(Writer& w) const {
  w.PutU64(id);
  PutFid(w, fid);
  w.PutU32(types);
  w.PutU64(range.start);
  w.PutU64(range.end);
  w.PutU32(host);
}

Result<Token> Token::Deserialize(Reader& r) {
  Token t;
  ASSIGN_OR_RETURN(t.id, r.ReadU64());
  ASSIGN_OR_RETURN(t.fid, ReadFid(r));
  ASSIGN_OR_RETURN(t.types, r.ReadU32());
  ASSIGN_OR_RETURN(t.range.start, r.ReadU64());
  ASSIGN_OR_RETURN(t.range.end, r.ReadU64());
  ASSIGN_OR_RETURN(t.host, r.ReadU32());
  return t;
}

bool OpenModesCompatible(uint32_t mode_a, uint32_t mode_b) {
  // Exclusive write is incompatible with everything (including itself): it is
  // how a VFS assures itself a file about to be deleted has no remote users.
  if ((mode_a & kTokenOpenExclusive) || (mode_b & kTokenOpenExclusive)) {
    return false;
  }
  // Write vs. execute: UNIX forbids writing a file open for execution.
  if (((mode_a & kTokenOpenWrite) && (mode_b & kTokenOpenExecute)) ||
      ((mode_a & kTokenOpenExecute) && (mode_b & kTokenOpenWrite))) {
    return false;
  }
  // Shared read excludes writers.
  if (((mode_a & kTokenOpenShared) && (mode_b & kTokenOpenWrite)) ||
      ((mode_a & kTokenOpenWrite) && (mode_b & kTokenOpenShared))) {
    return false;
  }
  // Everything else (read/read, read/write, read/execute, execute/execute,
  // shared/shared, shared/read, shared/execute, write/write) coexists.
  return true;
}

uint32_t ConflictingTypes(uint32_t held, const ByteRange& held_range, uint32_t req,
                          const ByteRange& req_range) {
  uint32_t conflict = 0;

  // Whole-volume tokens conflict with write-class tokens (and vice versa).
  if ((held & kTokenWholeVolume) && (req & kTokenWriteClassMask)) {
    conflict |= kTokenWholeVolume;
  }
  if ((req & kTokenWholeVolume) && (held & kTokenWriteClassMask)) {
    conflict |= held & kTokenWriteClassMask;
  }

  bool overlap = held_range.Overlaps(req_range);
  if (overlap) {
    // Data tokens: read/write and write/write conflict on overlapping ranges.
    if ((held & kTokenDataWrite) && (req & (kTokenDataRead | kTokenDataWrite))) {
      conflict |= kTokenDataWrite;
    }
    if ((held & kTokenDataRead) && (req & kTokenDataWrite)) {
      conflict |= kTokenDataRead;
    }
    if ((held & kTokenLockWrite) && (req & (kTokenLockRead | kTokenLockWrite))) {
      conflict |= kTokenLockWrite;
    }
    if ((held & kTokenLockRead) && (req & kTokenLockWrite)) {
      conflict |= kTokenLockRead;
    }
  }

  // Status tokens: ranges do not apply.
  if ((held & kTokenStatusWrite) && (req & (kTokenStatusRead | kTokenStatusWrite))) {
    conflict |= kTokenStatusWrite;
  }
  if ((held & kTokenStatusRead) && (req & kTokenStatusWrite)) {
    conflict |= kTokenStatusRead;
  }

  // Open tokens: the Figure-3 matrix.
  if ((held & kTokenOpenMask) && (req & kTokenOpenMask)) {
    if (!OpenModesCompatible(held & kTokenOpenMask, req & kTokenOpenMask)) {
      conflict |= held & kTokenOpenMask;
    }
  }
  return conflict;
}

bool TokensCompatible(uint32_t types_a, const ByteRange& range_a, uint32_t types_b,
                      const ByteRange& range_b) {
  return ConflictingTypes(types_a, range_a, types_b, range_b) == 0 &&
         ConflictingTypes(types_b, range_b, types_a, range_a) == 0;
}

uint32_t FoldedTypes(const Token& grant, const Token& held) {
  if (held.id >= grant.id || held.host != grant.host || held.fid != grant.fid) {
    return 0;
  }
  constexpr uint32_t kStatus = kTokenStatusRead | kTokenStatusWrite;
  constexpr uint32_t kData = kTokenDataRead | kTokenDataWrite;
  uint32_t shared = held.types & grant.types;
  uint32_t folded = shared & kStatus;
  if (grant.range.Contains(held.range)) {
    folded |= shared & kData;
  }
  return folded;
}

}  // namespace dfs
