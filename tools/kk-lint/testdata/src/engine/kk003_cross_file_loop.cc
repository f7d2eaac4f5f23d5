// Fixture: KK003 across files, loop half. This file alone shows no
// unordered type; the loop fires once kk-lint has read
// kk003_cross_file_state.h, even when this file is linted on its own.
namespace fixture {

uint64_t Retransmit(const NodeState& node) {
  uint64_t total = 0;
  for (const auto& [id, move] : node.in_flight) {  // KK003
    total += id;
  }
  return total;
}

}  // namespace fixture
