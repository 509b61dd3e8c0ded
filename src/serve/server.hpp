// Kept only so the end-to-end benchmark (bench_e2e/) compiles unchanged:
// Server is shard::ShardedServer, the one serving class (one device is a
// one-shard fleet). Delete this header at the next change to that
// benchmark.
#pragma once

#include "shard/sharded_server.hpp"

namespace harmonia::serve {

using Server = shard::ShardedServer;

}  // namespace harmonia::serve
