// Kept only so the end-to-end benchmark (bench_e2e/) compiles unchanged:
// Backend is shard::ShardedServer, the one serving class. Delete this
// header at the next change to that benchmark.
#pragma once

#include "shard/sharded_server.hpp"

namespace harmonia::serve {

using Backend = shard::ShardedServer;

}  // namespace harmonia::serve
