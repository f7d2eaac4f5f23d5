// Walk paths as the engine logs them per node, and their assembly into
// per-walker sequences after a Run.
#ifndef SRC_ENGINE_PATH_LOG_H_
#define SRC_ENGINE_PATH_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/check.h"
#include "src/util/types.h"

namespace knightking {

// One recorded walk position; paths are reassembled from these after a run.
struct PathEntry {
  walker_id_t walker = 0;
  step_t step = 0;
  vertex_id_t vertex = 0;

  friend bool operator==(const PathEntry&, const PathEntry&) = default;
};

// Every walker's path in one CSR blob: walker w visited
// vertices[offsets[w] .. offsets[w + 1]) in step order.
struct FlatPaths {
  std::vector<uint64_t> offsets;      // num_walkers + 1 entries, offsets[0] == 0
  std::vector<vertex_id_t> vertices;  // all paths, concatenated by walker id

  size_t num_paths() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const vertex_id_t> Path(size_t w) const {
    return {vertices.data() + offsets[w], static_cast<size_t>(offsets[w + 1] - offsets[w])};
  }
};

// Assembles the node logs of a Run over `num_walkers` walkers into *out with
// one two-pass counting scatter: pass 1 counts each walker's entries into
// CSR offsets, pass 2 writes every vertex at offsets[walker] + step and
// empties the log. No sort and no per-walker allocation; *out's buffers are
// reused. Aborts unless each walker's log holds every step below its entry
// count exactly once.
inline void AssembleFlatPaths(walker_id_t num_walkers,
                              std::span<std::vector<PathEntry>* const> logs, FlatPaths* out) {
  std::vector<uint64_t>& offsets = out->offsets;
  std::vector<vertex_id_t>& vertices = out->vertices;
  offsets.assign(static_cast<size_t>(num_walkers) + 1, 0);
  for (const std::vector<PathEntry>* log : logs) {
    for (const PathEntry& entry : *log) {
      KK_CHECK(entry.walker < num_walkers);
      offsets[entry.walker + 1] += 1;
    }
  }
  for (size_t w = 1; w < offsets.size(); ++w) {
    offsets[w] += offsets[w - 1];
  }
  // kInvalidVertex marks a slot not yet written; no graph vertex has it.
  vertices.assign(offsets.back(), kInvalidVertex);
  for (std::vector<PathEntry>* log : logs) {
    for (const PathEntry& entry : *log) {
      const uint64_t begin = offsets[entry.walker];
      const uint64_t count = offsets[entry.walker + 1] - begin;
      const bool fresh = entry.step < count && vertices[begin + entry.step] == kInvalidVertex;
      KK_CHECK_MSG(fresh && entry.vertex != kInvalidVertex,
                   "non-contiguous path log for walker %llu: step %u (vertex %u) %s "
                   "among its %llu log entries; a step record was dropped or "
                   "double-delivered upstream",
                   static_cast<unsigned long long>(entry.walker),
                   static_cast<unsigned>(entry.step), static_cast<unsigned>(entry.vertex),
                   entry.step >= count ? "is out of range" : "is logged twice",
                   static_cast<unsigned long long>(count));
      vertices[begin + entry.step] = entry.vertex;
    }
    log->clear();
  }
}

// The logs in canonical (walker, step) order: a view over AssembleFlatPaths.
inline std::vector<PathEntry> AssemblePathEntries(
    walker_id_t num_walkers, std::span<std::vector<PathEntry>* const> logs) {
  FlatPaths flat;
  AssembleFlatPaths(num_walkers, logs, &flat);
  std::vector<PathEntry> entries;
  entries.reserve(flat.vertices.size());
  for (size_t w = 0; w < flat.num_paths(); ++w) {
    step_t step = 0;
    for (vertex_id_t v : flat.Path(w)) {
      entries.push_back({static_cast<walker_id_t>(w), step++, v});
    }
  }
  return entries;
}

// The walk sequences indexed by walker id, one vector per walker.
inline std::vector<std::vector<vertex_id_t>> AssemblePaths(
    walker_id_t num_walkers, std::span<std::vector<PathEntry>* const> logs) {
  FlatPaths flat;
  AssembleFlatPaths(num_walkers, logs, &flat);
  std::vector<std::vector<vertex_id_t>> paths(flat.num_paths());
  for (size_t w = 0; w < paths.size(); ++w) {
    std::span<const vertex_id_t> path = flat.Path(w);
    paths[w].assign(path.begin(), path.end());
  }
  return paths;
}

}  // namespace knightking

#endif  // SRC_ENGINE_PATH_LOG_H_
