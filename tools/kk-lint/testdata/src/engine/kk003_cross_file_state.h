// Fixture: KK003 across files, declaration half. The container's unordered
// type is visible only here; kk003_cross_file_loop.cc walks it.
#include <cstdint>
#include <unordered_map>

namespace fixture {

struct NodeState {
  std::unordered_map<uint64_t, int> in_flight;
};

}  // namespace fixture
