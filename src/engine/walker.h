// Walker representation (§5.1).
//
// A walker is the unit of computation in KnightKing's walker-centric model.
// It carries everything needed to continue its walk wherever it lands: its
// id, current and previous vertices (the paper's second-order algorithms need
// exactly one step of history), step counter, custom algorithm state, and its
// own RNG — so a walk is a deterministic function of (seed, walker id)
// regardless of partitioning, thread schedule, or cluster size.
#ifndef SRC_ENGINE_WALKER_H_
#define SRC_ENGINE_WALKER_H_

#include "src/util/rng.h"
#include "src/util/types.h"

namespace knightking {

// Algorithms without custom per-walker state (DeepWalk, PPR, node2vec).
struct EmptyWalkerState {
  friend bool operator==(const EmptyWalkerState&, const EmptyWalkerState&) = default;
};

template <typename StateT = EmptyWalkerState>
struct Walker {
  walker_id_t id = kInvalidWalker;
  vertex_id_t cur = kInvalidVertex;   // current residing vertex
  vertex_id_t prev = kInvalidVertex;  // previous vertex (kInvalidVertex at step 0)
  step_t step = 0;                    // edges traversed so far
  [[no_unique_address]] StateT state{};
  Rng rng;  // travels with the walker: placement-independent determinism
};

}  // namespace knightking

#endif  // SRC_ENGINE_WALKER_H_
