#include "src/sampling/static_sampler.h"

namespace knightking {

const char* StaticSamplerKindName(StaticSamplerKind kind) {
  switch (kind) {
    case StaticSamplerKind::kAuto:
      return "auto";
    case StaticSamplerKind::kUniform:
      return "uniform";
    case StaticSamplerKind::kAlias:
      return "alias";
  }
  return "?";
}

}  // namespace knightking
