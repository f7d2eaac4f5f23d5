#include "src/engine/checkpoint.h"

#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace knightking {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvUpdate(uint64_t hash, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

BinaryFileWriter::BinaryFileWriter(const std::string& path) : fnv_(kFnvOffset) {
  f_ = std::fopen(path.c_str(), "wb");
  ok_ = f_ != nullptr;
}

BinaryFileWriter::~BinaryFileWriter() {
  if (f_ != nullptr) {
    std::fclose(f_);
  }
}

void BinaryFileWriter::WriteBytes(const void* data, size_t n) {
  if (!ok_ || n == 0) {
    return;
  }
  if (std::fwrite(data, 1, n, f_) != n) {
    ok_ = false;
    return;
  }
  bytes_written_ += n;
  fnv_ = FnvUpdate(fnv_, data, n);
}

bool BinaryFileWriter::Close() {
  if (f_ == nullptr) {
    return false;
  }
  // fclose flushes the stdio buffer; a short flush (full disk) surfaces here
  // rather than being swallowed.
  bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  ok_ = ok_ && closed;
  return ok_;
}

BinaryFileReader::BinaryFileReader(const std::string& path) : fnv_(kFnvOffset) {
  f_ = std::fopen(path.c_str(), "rb");
  if (f_ == nullptr) {
    return;
  }
  if (std::fseek(f_, 0, SEEK_END) != 0) {
    return;
  }
  long end = std::ftell(f_);
  if (end < 0 || std::fseek(f_, 0, SEEK_SET) != 0) {
    return;
  }
  file_bytes_ = static_cast<uint64_t>(end);
  ok_ = true;
}

BinaryFileReader::~BinaryFileReader() {
  if (f_ != nullptr) {
    std::fclose(f_);
  }
}

bool BinaryFileReader::CanConsume(uint64_t count, size_t elem_bytes) const {
  if (!ok_ || elem_bytes == 0) {
    return false;
  }
  return count <= remaining() / elem_bytes;
}

bool BinaryFileReader::ReadBytes(void* data, size_t n) {
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return false;
  }
  if (n == 0) {
    return true;
  }
  if (std::fread(data, 1, n, f_) != n) {
    ok_ = false;
    return false;
  }
  consumed_ += n;
  fnv_ = FnvUpdate(fnv_, data, n);
  return true;
}

bool BinaryFileReader::SkipBytes(uint64_t n) {
  unsigned char buf[4096];
  while (n > 0) {
    size_t chunk = n < sizeof(buf) ? static_cast<size_t>(n) : sizeof(buf);
    if (!ReadBytes(buf, chunk)) {
      return false;
    }
    n -= chunk;
  }
  return true;
}

void WriteCheckpointHeader(BinaryFileWriter& w, const CheckpointHeader& h) {
  w.Write(h.magic);
  w.Write(h.version);
  w.Write(h.num_nodes);
  w.Write(h.seed);
  w.Write(h.superstep);
  w.Write(h.num_walkers);
  w.Write(h.walker_bytes);
  w.Write(h.pending_bytes);
  w.Write(h.inflight_bytes);
  w.Write(h.pathentry_bytes);
  w.Write(h.mutation_batches);
  w.Write(h.mutation_hash);
}

bool ReadCheckpointHeader(BinaryFileReader& r, CheckpointHeader* h) {
  if (!r.Read(&h->magic) || h->magic != kCheckpointMagic) {
    return false;
  }
  if (!r.Read(&h->version) || h->version != kCheckpointVersion) {
    return false;
  }
  return r.Read(&h->num_nodes) && r.Read(&h->seed) && r.Read(&h->superstep) &&
         r.Read(&h->num_walkers) && r.Read(&h->walker_bytes) && r.Read(&h->pending_bytes) &&
         r.Read(&h->inflight_bytes) && r.Read(&h->pathentry_bytes) &&
         r.Read(&h->mutation_batches) && r.Read(&h->mutation_hash);
}

namespace {

// Pushes the tmp file's bytes to stable storage before the rename publishes
// it: rename-then-crash must never expose a file whose data blocks are still
// dirty in the page cache (docs/TESTING.md, "Snapshot format"). No-op without fsync.
bool SyncFile(const std::string& path) {
#ifndef _WIN32
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

// Best-effort fsync of the directory holding `path`, so the rename's
// directory-entry update is durable too. Failures are ignored: some
// filesystems reject directory fsync, and the file data is already synced.
void SyncParentDir(const std::string& path) {
#ifndef _WIN32
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) {
    dir = "/";
  }
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

bool CommitFile(const std::string& tmp_path, const std::string& final_path) {
  if (!SyncFile(tmp_path)) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  SyncParentDir(final_path);
  return true;
}

namespace {

// Consumes one "u64 count + count * elem_bytes" section without allocating,
// accumulating the count into *total. False on truncation or a count larger
// than the remaining file.
bool SkipSizedSection(BinaryFileReader& r, size_t elem_bytes, uint64_t* total,
                      std::string* error, const char* what) {
  uint64_t count = 0;
  if (!r.Read(&count) || !r.CanConsume(count, elem_bytes) ||
      !r.SkipBytes(count * elem_bytes)) {
    *error = std::string("truncated or oversized ") + what + " section";
    return false;
  }
  *total += count;
  return true;
}

}  // namespace

bool InspectCheckpoint(const std::string& path, CheckpointInfo* info, std::string* error) {
  *info = CheckpointInfo{};
  error->clear();
  BinaryFileReader r(path);
  if (!r.ok()) {
    *error = "cannot open " + path;
    return false;
  }
  info->file_bytes = r.file_bytes();
  if (!ReadCheckpointHeader(r, &info->header)) {
    *error = "bad magic, unsupported version, or truncated header";
    return false;
  }
  const CheckpointHeader& h = info->header;
  if (h.walker_bytes == 0 || h.pending_bytes == 0 || h.inflight_bytes == 0 ||
      h.pathentry_bytes == 0) {
    *error = "header declares a zero-sized record type";
    return false;
  }
  if (!SkipSizedSection(r, sizeof(uint32_t), &info->progress_entries, error,
                        "walker_progress") ||
      !SkipSizedSection(r, sizeof(uint64_t), &info->history_entries, error,
                        "active_history")) {
    return false;
  }
  for (uint32_t n = 0; n < h.num_nodes; ++n) {
    uint64_t stats_bytes = 0;
    if (!r.Read(&stats_bytes) || !r.CanConsume(stats_bytes, 1) || !r.SkipBytes(stats_bytes)) {
      *error = "truncated or oversized node stats section";
      return false;
    }
    if (!SkipSizedSection(r, h.walker_bytes, &info->active_walkers, error, "active") ||
        !SkipSizedSection(r, h.pending_bytes, &info->pending_trials, error, "pending") ||
        !SkipSizedSection(r, h.inflight_bytes, &info->in_flight_moves, error, "in_flight") ||
        !SkipSizedSection(r, h.pathentry_bytes, &info->path_entries, error, "path_log")) {
      return false;
    }
  }
  uint64_t computed = r.checksum();
  uint64_t stored = 0;
  if (!r.Read(&stored)) {
    *error = "missing checksum trailer";
    return false;
  }
  if (stored != computed) {
    *error = "checksum mismatch (corrupt snapshot)";
    return false;
  }
  if (r.remaining() != 0) {
    *error = "trailing bytes after checksum";
    return false;
  }
  return true;
}

}  // namespace knightking
