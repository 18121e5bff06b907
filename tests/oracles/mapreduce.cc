#include "oracles/mapreduce.h"

#include <algorithm>

namespace ms {

size_t DefaultPartitionCount(size_t input_size, size_t workers) {
  if (input_size == 0) return 1;
  // A few partitions per worker balances skew without drowning in overhead.
  return std::max<size_t>(1, std::min(input_size, workers * 4));
}

}  // namespace ms
